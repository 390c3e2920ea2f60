module E = Event.Sys

type t = {
  nprocs : int;
  msgs : (int * int) array;
  seq : E.t list array;
  present : Bitset.t; (* over 4 * nmsgs encoded events *)
  po : Poset.t; (* over 4 * nmsgs; edges only among present events *)
}

let proc_of_event msgs (e : E.t) =
  let src, dst = msgs.(e.msg) in
  match e.kind with
  | E.Invoke | E.Send -> src
  | E.Receive | E.Deliver -> dst

(* Well-formedness (§3.1): placement, request-before-execution on the same
   process, receive-only-if-sent, acyclicity. *)
let validate ~msgs seq =
  let nmsgs = Array.length msgs in
  let present = Bitset.create (4 * nmsgs) in
  let err = ref None in
  let set_err s = if !err = None then err := Some s in
  Array.iteri
    (fun p events ->
      List.iter
        (fun (e : E.t) ->
          if e.msg < 0 || e.msg >= nmsgs then
            set_err (Printf.sprintf "event of unknown message %d" e.msg)
          else begin
            if proc_of_event msgs e <> p then
              set_err
                (Format.asprintf "%a on process %d, expected %d" E.pp e p
                   (proc_of_event msgs e));
            let i = E.encode e in
            if Bitset.mem present i then
              set_err (Format.asprintf "duplicate event %a" E.pp e)
            else Bitset.add present i
          end)
        events)
    seq;
  (match !err with
  | Some _ -> ()
  | None ->
      (* request precedes execution, in the same process sequence *)
      Array.iter
        (fun events ->
          let seen = Hashtbl.create 16 in
          List.iter
            (fun (e : E.t) ->
              (match e.kind with
              | E.Send ->
                  if not (Hashtbl.mem seen (e.msg, E.Invoke)) then
                    set_err
                      (Printf.sprintf "x%d.s executed before x%d.s*" e.msg
                         e.msg)
              | E.Deliver ->
                  if not (Hashtbl.mem seen (e.msg, E.Receive)) then
                    set_err
                      (Printf.sprintf "x%d.r executed before x%d.r*" e.msg
                         e.msg)
              | E.Invoke | E.Receive -> ());
              Hashtbl.replace seen (e.msg, e.kind) ())
            events)
        seq;
      (* receive only if sent *)
      for m = 0 to nmsgs - 1 do
        if
          Bitset.mem present (E.encode { E.msg = m; kind = E.Receive })
          && not (Bitset.mem present (E.encode { E.msg = m; kind = E.Send }))
        then set_err (Printf.sprintf "x%d.r* present without x%d.s" m m)
      done);
  match !err with Some e -> Error e | None -> Ok present

let build_poset ~msgs seq =
  let nmsgs = Array.length msgs in
  let edges = ref [] in
  Array.iter
    (fun events ->
      let rec chain = function
        | a :: (b :: _ as rest) ->
            edges := (E.encode a, E.encode b) :: !edges;
            chain rest
        | [ _ ] | [] -> ()
      in
      chain events)
    seq;
  (* message edge: x.s -> x.r* (condition 2 of the order definition) *)
  for m = 0 to nmsgs - 1 do
    edges :=
      ( E.encode { E.msg = m; kind = E.Send },
        E.encode { E.msg = m; kind = E.Receive } )
      :: !edges
  done;
  Poset.of_edges (4 * nmsgs) !edges

let of_sequences ~nprocs ~msgs seq =
  if Array.length seq <> nprocs then
    invalid_arg "Sys_run.of_sequences: sequence array length <> nprocs";
  match validate ~msgs seq with
  | Error e -> Error e
  | Ok present -> (
      match build_poset ~msgs seq with
      | None -> Error "sequences induce a cyclic order"
      | Some po -> Ok { nprocs; msgs; seq; present; po })

let nprocs t = t.nprocs

let nmsgs t = Array.length t.msgs

let msg_src t m = fst t.msgs.(m)

let msg_dst t m = snd t.msgs.(m)

let sequence t i =
  if i < 0 || i >= t.nprocs then invalid_arg "Sys_run.sequence";
  t.seq.(i)

let mem t e = Bitset.mem t.present (E.encode e)

let lt t a b =
  if not (mem t a && mem t b) then false
  else Poset.lt t.po (E.encode a) (E.encode b)

let is_complete t =
  let nmsgs = Array.length t.msgs in
  let ok = ref true in
  for m = 0 to nmsgs - 1 do
    List.iter
      (fun kind -> if not (mem t { E.msg = m; kind }) then ok := false)
      [ E.Invoke; E.Send; E.Receive; E.Deliver ]
  done;
  !ok

let rec list_is_prefix a b =
  match (a, b) with
  | [], _ -> true
  | x :: a', y :: b' -> E.equal x y && list_is_prefix a' b'
  | _ :: _, [] -> false

let is_prefix g h =
  g.nprocs = h.nprocs
  && Array.length g.msgs = Array.length h.msgs
  &&
  let ok = ref true in
  for p = 0 to g.nprocs - 1 do
    if not (list_is_prefix g.seq.(p) h.seq.(p)) then ok := false
  done;
  !ok

let causal_past t i =
  if i < 0 || i >= t.nprocs then invalid_arg "Sys_run.causal_past";
  (* keep g on process j≠i iff some event of process i follows it *)
  let followed g =
    List.exists (fun h -> lt t g h) t.seq.(i)
  in
  let seq =
    Array.mapi
      (fun p events ->
        if p = i then events else List.filter followed events)
      t.seq
  in
  match of_sequences ~nprocs:t.nprocs ~msgs:t.msgs seq with
  | Ok g -> g
  | Error e ->
      (* the causal past of a run is always a run *)
      invalid_arg ("Sys_run.causal_past: internal: " ^ e)

let extend t p (e : E.t) =
  if p < 0 || p >= t.nprocs then invalid_arg "Sys_run.extend";
  let seq = Array.copy t.seq in
  seq.(p) <- seq.(p) @ [ e ];
  of_sequences ~nprocs:t.nprocs ~msgs:t.msgs seq

module Pending = struct
  let invokes t i =
    let acc = ref [] in
    Array.iteri
      (fun m (src, _) ->
        if src = i && not (mem t { E.msg = m; kind = E.Invoke }) then
          acc := { E.msg = m; E.kind = E.Invoke } :: !acc)
      t.msgs;
    List.rev !acc

  let sends t i =
    let acc = ref [] in
    Array.iteri
      (fun m (src, _) ->
        if
          src = i
          && mem t { E.msg = m; kind = E.Invoke }
          && not (mem t { E.msg = m; kind = E.Send })
        then acc := { E.msg = m; E.kind = E.Send } :: !acc)
      t.msgs;
    List.rev !acc

  let receives t i =
    let acc = ref [] in
    Array.iteri
      (fun m (_, dst) ->
        if
          dst = i
          && mem t { E.msg = m; kind = E.Send }
          && not (mem t { E.msg = m; kind = E.Receive })
        then acc := { E.msg = m; E.kind = E.Receive } :: !acc)
      t.msgs;
    List.rev !acc

  let deliveries t i =
    let acc = ref [] in
    Array.iteri
      (fun m (_, dst) ->
        if
          dst = i
          && mem t { E.msg = m; kind = E.Receive }
          && not (mem t { E.msg = m; kind = E.Deliver })
        then acc := { E.msg = m; E.kind = E.Deliver } :: !acc)
      t.msgs;
    List.rev !acc

  let controllable t i = sends t i @ deliveries t i

  let all_done t =
    let ok = ref true in
    for i = 0 to t.nprocs - 1 do
      if sends t i <> [] || receives t i <> [] || deliveries t i <> [] then
        ok := false
    done;
    !ok
end

let users_view t =
  if not (is_complete t) then
    Error "users_view: run is not complete (some message lacks events)"
  else
    let seq =
      Array.map
        (fun events ->
          List.filter_map
            (fun (e : E.t) ->
              match E.to_user e with
              | Some (msg, Event.S) -> Some (Event.send msg)
              | Some (msg, Event.R) -> Some (Event.deliver msg)
              | None -> None)
            events)
        t.seq
    in
    Run.of_sequences ~nprocs:t.nprocs ~msgs:t.msgs seq

module Lemma2 = struct
  (* request immediately precedes execution, in every process sequence *)
  let immediate t =
    let ok = ref true in
    Array.iter
      (fun events ->
        let rec scan = function
          | (a : E.t) :: ((b : E.t) :: _ as rest) ->
              (match a.kind with
              | E.Invoke ->
                  if not (b.msg = a.msg && b.kind = E.Send) then ok := false
              | E.Receive ->
                  if not (b.msg = a.msg && b.kind = E.Deliver) then
                    ok := false
              | E.Send | E.Deliver -> ());
              scan rest
          | [ (a : E.t) ] ->
              (match a.kind with
              | E.Invoke | E.Receive -> ok := false
              | E.Send | E.Deliver -> ());
              ()
          | [] -> ()
        in
        scan events)
      t.seq;
    !ok

  let all_requested_delivered t =
    let ok = ref true in
    for m = 0 to Array.length t.msgs - 1 do
      if
        mem t { E.msg = m; kind = E.Invoke }
        && not (mem t { E.msg = m; kind = E.Deliver })
      then ok := false
    done;
    !ok

  let in_tagless_set t = immediate t && all_requested_delivered t

  let causal_on_receives t =
    let nmsgs = Array.length t.msgs in
    let ok = ref true in
    for x = 0 to nmsgs - 1 do
      for y = 0 to nmsgs - 1 do
        if
          x <> y
          && lt t { E.msg = x; kind = E.Send } { E.msg = y; kind = E.Send }
          && lt t
               { E.msg = y; kind = E.Receive }
               { E.msg = x; kind = E.Receive }
        then ok := false
      done
    done;
    !ok

  let in_tagged_set t = in_tagless_set t && causal_on_receives t

  (* numbering N with vertical arrows exists iff the block message graph is
     acyclic: x -> y when some event of x precedes some event of y *)
  let vertical_numbering_exists t =
    let nmsgs = Array.length t.msgs in
    let kinds = [ E.Invoke; E.Send; E.Receive; E.Deliver ] in
    let precedes x y =
      x <> y
      && List.exists
           (fun ka ->
             List.exists
               (fun kb -> lt t { E.msg = x; kind = ka } { E.msg = y; kind = kb })
               kinds)
           kinds
    in
    (* Kahn asks each pair twice: ask the order once *)
    let adj = Array.init nmsgs (fun x -> Array.init nmsgs (precedes x)) in
    Result.is_ok (Limits.numbering_or_crown nmsgs (fun x y -> adj.(x).(y)))

  let in_general_set t = in_tagged_set t && vertical_numbering_exists t
end

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun p events ->
      Format.fprintf ppf "P%d: @[<h>%a@]@ " p
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
           E.pp)
        events)
    t.seq;
  Format.fprintf ppf "@]"
