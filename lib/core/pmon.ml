open Mo_order

type verdict = { at : int; witness : int array }

type t = {
  mon : Monitor.t;
  matcher : Eval.Masked.matcher;
  mutable verdict : verdict option;
}

let create ?window ?distinct ~nprocs c =
  {
    mon = Monitor.create ?window ~nprocs ();
    matcher = Eval.Masked.make ?distinct c;
    verdict = None;
  }

let exact ?distinct c run =
  let nmsgs = Run.nmsgs run in
  if nmsgs > Monitor.max_wide_window then
    invalid_arg "Pmon.exact: run exceeds the monitor window";
  create ~window:(max nmsgs 1) ?distinct ~nprocs:(Run.nprocs run) c

let verdict t = t.verdict

let monitor t = t.mon

(* evaluate the predicate over the frontier; the first match is final *)
let check t =
  (match t.verdict with
  | Some _ -> ()
  | None -> (
      let mon = t.mon in
      match
        match Monitor.rep mon with
        | Monitor.P p ->
            let open Monitor.Packed in
            Eval.Masked.find t.matcher ~n:(window p) ~live:(live p)
              ~masks:(masks p) ~src:(slot_src p) ~dst:(slot_dst p)
              ~color:(slot_color p)
        | Monitor.W w ->
            let open Monitor.Wide in
            Eval.Masked.find_wide t.matcher ~n:(window w) ~live:(live w)
              ~rel:(rel w) ~src:(slot_src w) ~dst:(slot_dst w)
              ~color:(slot_color w)
      with
      | None -> ()
      | Some a ->
          let witness = Array.map (Monitor.slot_msg mon) a in
          t.verdict <- Some { at = Monitor.events mon - 1; witness }));
  t.verdict

let send t ~msg ~src ~dst ?color () =
  Monitor.send t.mon ~msg ~src ~dst ?color ();
  check t

let deliver t ~msg =
  Monitor.deliver t.mon ~msg;
  check t

let feed_events t run events =
  List.iter
    (fun (e : Event.t) ->
      match e.point with
      | Event.S ->
          ignore
            (send t ~msg:e.msg ~src:(Run.msg_src run e.msg)
               ~dst:(Run.msg_dst run e.msg)
               ?color:(Run.msg_color run e.msg) ())
      | Event.R -> ignore (deliver t ~msg:e.msg))
    events;
  t.verdict

let feed_run ?distinct c run =
  feed_events (exact ?distinct c run) run (Run.linearize run)
