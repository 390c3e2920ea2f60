(* Differential verification of the streaming predicate monitors.

   - online = offline: every concrete run of the standard-plus universe
     (125,768 runs), streamed along 3 random linear extensions, must get
     the same verdict from the compiled monitor (Pmon over the
     Monitor frontier) as the offline evaluator on the completed run;
     the per-predicate offline violation counts are pinned the way
     test_eval_fast.ml pins run counts. MO_MONITOR_DEEP=1 extends the
     pass to the deep tier with a deterministic 1/37 monitored sample.
   - earliest detection: a violation must be reported at the first
     prefix whose must-closure satisfies the predicate — compared
     against an oracle that rebuilds the must-poset of every prefix and
     reruns the offline checker on it. Neither late nor speculative.
   - sharded determinism: the per-key driver produces byte-identical
     reports at jobs 1/2/4/7 (5 seeds; nightly raises the key count via
     MO_MONITOR_DEEP).
   - bounded frontier: with retirement active (window < messages) the
     resident bytes are a constant of the window, independent of stream
     length, and a violation planted deep into a long stream is still
     caught at its exact event index.
   - delta matching: Pmon searches only for matches that use a slot the
     latest event touched; it must give, event by event, the verdict of
     a reference monitor that runs the full search after every event,
     and every relation bit an event sets must have its row or column
     slot among the touched ones. *)

open Mo_core
open Mo_order
open Mo_workload

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let deep = Sys.getenv_opt "MO_MONITOR_DEEP" <> None

let plan_fifo = Eval.compile Catalog.fifo.Catalog.pred
let plan_b2 = Eval.compile Catalog.causal_b2.Catalog.pred
let plan_crown = Eval.compile (Catalog.sync_crown 2).Catalog.pred
let plans = [ plan_fifo; plan_b2; plan_crown ]

(* ---- the must-closure oracle ------------------------------------- *)

(* The must-poset of a stream prefix: observed events ordered by process
   order and message edges, plus one virtual delivery per pending
   message, pinned after the current last event of its destination.
   Messages are renumbered compactly in send order — the same order the
   monitor assigns slots. *)
let must_prefix run (events : Event.t list) =
  let nprocs = Run.nprocs run and nmsgs = Run.nmsgs run in
  let compact = Array.make nmsgs (-1) in
  let delivered = Array.make nmsgs false in
  let last = Array.make nprocs None in
  let sent = ref 0 in
  let edges = ref [] in
  let step (e : Event.t) p =
    let e' = { e with Event.msg = compact.(e.msg) } in
    (match last.(p) with
    | Some u -> edges := (u, e') :: !edges
    | None -> ());
    last.(p) <- Some e'
  in
  List.iter
    (fun (e : Event.t) ->
      match e.point with
      | Event.S ->
          compact.(e.msg) <- !sent;
          incr sent;
          step e (Run.msg_src run e.msg)
      | Event.R ->
          delivered.(e.msg) <- true;
          step e (Run.msg_dst run e.msg))
    events;
  for m = 0 to nmsgs - 1 do
    if compact.(m) >= 0 && not delivered.(m) then
      match last.(Run.msg_dst run m) with
      | Some u -> edges := (u, Event.deliver compact.(m)) :: !edges
      | None -> ()
  done;
  let attrs = Array.make !sent Run.no_attrs in
  for m = 0 to nmsgs - 1 do
    if compact.(m) >= 0 then
      attrs.(compact.(m)) <-
        Run.attrs_known ~src:(Run.msg_src run m) ~dst:(Run.msg_dst run m)
          ?color:(Run.msg_color run m) ()
  done;
  Run.Abstract.create_exn ~nmsgs:!sent ~attrs !edges

(* first prefix length whose must-closure satisfies the predicate *)
let oracle_first plan run events =
  let len = List.length events in
  let rec go l =
    if l > len then None
    else
      let prefix = List.filteri (fun i _ -> i < l) events in
      if Eval.holds_c plan (must_prefix run prefix) then Some l else go (l + 1)
  in
  go 0

let monitor_verdict plan run events = Pmon.feed_events (Pmon.exact plan run) run events

(* ---- differential: online = offline, earliest = oracle ----------- *)

let small_sizes = [ (2, 2); (3, 2); (2, 3) ]

let test_earliest_oracle () =
  List.iter
    (fun (nprocs, nmsgs) ->
      List.iter
        (fun r ->
          let events = Run.linearize_random r ~seed:(Hashtbl.hash (Run.linearize r)) in
          List.iter
            (fun plan ->
              let expected = oracle_first plan r events in
              let got =
                match monitor_verdict plan r events with
                | Some (v : Pmon.verdict) -> Some (v.at + 1)
                | None -> None
              in
              check_bool "verdict at the oracle's first unavoidable prefix"
                true
                (expected = got))
            plans)
        (Enumerate.all_runs ~nprocs ~nmsgs ()))
    small_sizes

let prop_earliest_random =
  QCheck.Test.make ~name:"oracle agreement on random runs" ~count:150
    QCheck.(int_bound 100_000)
    (fun seed ->
      let r = Random_run.run ~nprocs:3 ~nmsgs:8 ~seed () in
      let events = Run.linearize_random r ~seed in
      List.for_all
        (fun plan ->
          let expected = oracle_first plan r events in
          let got =
            match monitor_verdict plan r events with
            | Some (v : Pmon.verdict) -> Some (v.at + 1)
            | None -> None
          in
          expected = got)
        plans)

(* the full standard-plus universe, counts pinned; nightly adds the
   deep tier with a deterministic sample of monitored runs *)
let universe_sizes = Modelcheck.standard_sizes @ [ (4, 2); (4, 3); (3, 4) ]

let test_differential_universe () =
  let report =
    Modelcheck.verify_monitor ~extensions:3 ~seed:42 ~sizes:universe_sizes ()
  in
  check_bool "online = offline over the universe" true
    report.Modelcheck.m_agree;
  check_int "universe runs" 125_768 report.Modelcheck.m_runs;
  (* causal_b2 is exactly runs − causal (125,768 − 63,364): the online
     face of the Lemma 3.2 pin in test_eval_fast.ml *)
  List.iter
    (fun (name, expected) ->
      check_int name expected
        (List.assoc name report.Modelcheck.m_violations))
    [ ("fifo", 58_768); ("causal_b2", 62_404); ("crown2", 83_556) ]

let test_differential_deep () =
  if not deep then ()
  else
    let report =
      Modelcheck.verify_monitor ~extensions:2 ~seed:7 ~sample:37
        ~sizes:Modelcheck.deep_sizes ()
    in
    check_bool "online = offline over the deep tier" true
      report.Modelcheck.m_agree;
    check_int "deep runs" 940_304 report.Modelcheck.m_runs

(* ---- sharded determinism ----------------------------------------- *)

let report_repr (r : Stream.report) =
  Format.asprintf "%d:%d:%d:%s" r.Stream.key r.Stream.events
    r.Stream.frontier_bytes
    (match r.Stream.verdict with
    | None -> "-"
    | Some v ->
        Format.asprintf "%d@[%a]" v.Pmon.at
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
             Format.pp_print_int)
          (Array.to_list v.Pmon.witness))

let test_sharding_deterministic () =
  let nkeys = if deep then 5_000 else 1_000 in
  let seeds = if deep then [ 11; 12; 13; 14; 15; 16; 17 ] else [ 1; 2; 3; 4; 5 ] in
  let profile = { Stream.default_profile with Stream.disorder = 0.05 } in
  List.iter
    (fun seed ->
      let logs =
        List.map
          (fun jobs ->
            let pool = Mo_par.Pool.create ~jobs () in
            let reports =
              Stream.monitor_keys ~pool ~pred:plan_fifo ~profile ~nkeys
                ~seed ()
            in
            String.concat ";"
              (Array.to_list (Array.map report_repr reports)))
          [ 1; 2; 4; 7 ]
      in
      match logs with
      | base :: rest ->
          List.iteri
            (fun i log ->
              check_bool
                (Printf.sprintf "seed %d: jobs run %d = jobs 1" seed i)
                true (log = base))
            rest
      | [] -> assert false)
    seeds;
  (* the synthetic traffic actually contains violations to log *)
  let pool = Mo_par.Pool.create ~jobs:2 () in
  let reports =
    Stream.monitor_keys ~pool ~pred:plan_fifo
      ~profile:{ Stream.default_profile with Stream.disorder = 0.05 }
      ~nkeys:1_000 ~seed:1 ()
  in
  check_bool "fuzz traffic has violations" true (Stream.violations reports > 0)

(* ---- bounded window ---------------------------------------------- *)

(* a FIFO inversion planted after [pad] clean same-channel messages:
   the overtaken message is still pending when the overtaker's delivery
   arrives, so detection must fire exactly there, long after the first
   window filled and retirement began *)
let test_windowed_detection () =
  let pad = 1_000 in
  let t = Pmon.create ~window:16 ~nprocs:2 plan_fifo in
  for m = 0 to pad - 1 do
    ignore (Pmon.send t ~msg:m ~src:0 ~dst:1 ());
    ignore (Pmon.deliver t ~msg:m)
  done;
  ignore (Pmon.send t ~msg:pad ~src:0 ~dst:1 ());
  ignore (Pmon.send t ~msg:(pad + 1) ~src:0 ~dst:1 ());
  check_bool "clean so far" true (Pmon.verdict t = None);
  let v = Pmon.deliver t ~msg:(pad + 1) in
  (match v with
  | Some v ->
      (* events: 2*pad clean, two sends, then the inverted delivery *)
      check_int "detected at the inverted delivery" ((2 * pad) + 2)
        v.Pmon.at;
      check_bool "witness is the planted pair" true
        (Array.to_list v.Pmon.witness = [ pad; pad + 1 ])
  | None -> Alcotest.fail "planted violation missed");
  (* sticky verdict; stream keeps flowing *)
  ignore (Pmon.deliver t ~msg:pad);
  check_bool "verdict sticky" true (Pmon.verdict t <> None)

let test_frontier_bounded () =
  let feed nmsgs =
    let t = Pmon.create ~window:16 ~nprocs:3 plan_b2 in
    let profile =
      { Stream.default_profile with Stream.nmsgs; Stream.disorder = 0. }
    in
    List.iter
      (function
        | Stream.Send { msg; src; dst } ->
            ignore (Pmon.send t ~msg ~src ~dst ())
        | Stream.Deliver { msg } -> ignore (Pmon.deliver t ~msg))
      (Stream.key_events profile ~seed:3 ~key:0);
    let mon = Pmon.monitor t in
    check_int "all events consumed" (2 * nmsgs) (Monitor.events mon);
    Monitor.frontier_bytes mon
  in
  let short = feed 1_000 and long = feed 10_000 in
  check_int "frontier bytes independent of stream length" short long;
  check_bool "frontier is small" true (short < 10_000)

(* ---- wide (Bitset) representation -------------------------------- *)

(* packed and forced-wide monitors over one truncated-window stream:
   after every event the two representations must hold the identical
   relation (bit for bit, all eight sections), identical slot state,
   and give the matcher the identical answer — the Bitset fallback is
   the packed automaton, just wider words *)
let test_wide_differential () =
  let w = 16 in
  let profile =
    {
      Stream.default_profile with
      Stream.nmsgs = 200;
      Stream.disorder = 0.1;
    }
  in
  let nprocs = profile.Stream.nprocs in
  let matchers =
    List.map (fun plan -> Eval.Masked.make plan) plans
  in
  let agree pm wm =
    let pmask, plive =
      match Monitor.rep pm with
      | Monitor.P p -> (Monitor.Packed.masks p, Monitor.Packed.live p)
      | Monitor.W _ -> Alcotest.fail "expected a packed monitor"
    and rel, wlive =
      match Monitor.rep wm with
      | Monitor.W w -> (Monitor.Wide.rel w, Monitor.Wide.live w)
      | Monitor.P _ -> Alcotest.fail "expected a wide monitor"
    in
    for j = 0 to w - 1 do
      let pl = plive land (1 lsl j) <> 0 in
      check_bool "live slots agree" pl (Bitset.mem wlive j);
      if pl then begin
        check_int "slot msg" (Monitor.slot_msg pm j) (Monitor.slot_msg wm j);
        check_bool "slot delivered" (Monitor.slot_delivered pm j)
          (Monitor.slot_delivered wm j)
      end
    done;
    for i = 0 to (8 * w) - 1 do
      for y = 0 to w - 1 do
        if pmask.(i) land (1 lsl y) <> 0 <> Bitset.mem rel.(i) y then
          Alcotest.failf "relation row %d bit %d differs" i y
      done
    done;
    List.iter
      (fun matcher ->
        let a =
          Eval.Masked.find matcher ~n:w ~live:plive ~masks:pmask
            ~src:(Monitor.slot_src pm) ~dst:(Monitor.slot_dst pm)
            ~color:(Monitor.slot_color pm)
        and b =
          Eval.Masked.find_wide matcher ~n:w ~live:wlive ~rel
            ~src:(Monitor.slot_src wm) ~dst:(Monitor.slot_dst wm)
            ~color:(Monitor.slot_color wm)
        in
        check_bool "matcher verdicts agree" true (a = b))
      matchers
  in
  List.iter
    (fun seed ->
      let pm = Monitor.create ~window:w ~nprocs () in
      let wm = Monitor.create ~window:w ~wide:true ~nprocs () in
      check_bool "small window defaults packed" false (Monitor.is_wide pm);
      check_bool "wide:true forces the Bitset path" true (Monitor.is_wide wm);
      List.iter
        (fun ev ->
          (match ev with
          | Stream.Send { msg; src; dst } ->
              Monitor.send pm ~msg ~src ~dst ();
              Monitor.send wm ~msg ~src ~dst ()
          | Stream.Deliver { msg } ->
              Monitor.deliver pm ~msg;
              Monitor.deliver wm ~msg);
          check_int "events agree" (Monitor.events pm) (Monitor.events wm);
          check_int "retired agree" (Monitor.retired pm)
            (Monitor.retired wm);
          check_int "pending agree" (Monitor.pending pm)
            (Monitor.pending wm);
          agree pm wm)
        (Stream.key_events profile ~seed ~key:0))
    [ 1; 2; 3 ]

(* a window no packed int can hold: 100 messages in flight at once,
   then a FIFO inversion — only the Bitset representation can keep every
   pending slot resident, and Pmon routes to it transparently *)
let test_wide_window_128 () =
  let t = Pmon.create ~window:128 ~nprocs:2 plan_fifo in
  check_bool "window 128 is wide" true (Monitor.is_wide (Pmon.monitor t));
  for m = 0 to 99 do
    ignore (Pmon.send t ~msg:m ~src:0 ~dst:1 ())
  done;
  check_bool "100 in flight, clean" true (Pmon.verdict t = None);
  check_int "all pending" 100 (Monitor.pending (Pmon.monitor t));
  (* deliver the newest first: overtakes all 99 older channel-mates *)
  let v = Pmon.deliver t ~msg:99 in
  (match v with
  | Some v ->
      check_int "detected at the inverted delivery" 100 v.Pmon.at;
      check_bool "witness is an overtaken pair" true
        (match List.sort compare (Array.to_list v.Pmon.witness) with
        | [ x; y ] -> x < 99 && y = 99
        | _ -> false)
  | None -> Alcotest.fail "planted violation missed");
  for m = 0 to 98 do
    ignore (Pmon.deliver t ~msg:m)
  done;
  check_int "all events consumed" 200 (Monitor.events (Pmon.monitor t))

let test_window_exhaustion () =
  let t = Monitor.create ~window:2 ~nprocs:2 () in
  Monitor.send t ~msg:0 ~src:0 ~dst:1 ();
  Monitor.send t ~msg:1 ~src:0 ~dst:1 ();
  Alcotest.check_raises "exhausted window raises"
    (Invalid_argument "Monitor.send: window exhausted (every slot pending)")
    (fun () -> Monitor.send t ~msg:2 ~src:0 ~dst:1 ());
  (* delivering frees a retirable slot *)
  Monitor.deliver t ~msg:0;
  Monitor.send t ~msg:2 ~src:0 ~dst:1 ();
  check_int "one slot recycled" 1 (Monitor.retired t)

(* ---- allocation ------------------------------------------------- *)

(* a clean stream (oldest-first delivery: no FIFO or causal violation)
   of [2 * nmsgs] events, generated before anything is measured *)
let clean_events nmsgs =
  Array.of_list
    (Stream.key_events
       { Stream.default_profile with Stream.nmsgs; Stream.disorder = 0. }
       ~seed:5 ~key:0)

(* minor words that [feed] allocates over the whole of [evs] *)
let words_fed feed evs =
  let w0 = Gc.minor_words () in
  for i = 0 to Array.length evs - 1 do
    feed evs.(i)
  done;
  Gc.minor_words () -. w0

(* once created, a packed frontier allocates nothing per event: 10,000
   events cost the same minor words as 100 *)
let test_packed_allocation_free () =
  let short = clean_events 50 and long = clean_events 5_000 in
  let nprocs = Stream.default_profile.Stream.nprocs in
  let monitor evs =
    let m = Monitor.create ~window:16 ~nprocs () in
    check_bool "packed" false (Monitor.is_wide m);
    let w =
      words_fed
        (function
          | Stream.Send { msg; src; dst } -> Monitor.send m ~msg ~src ~dst ()
          | Stream.Deliver { msg } -> Monitor.deliver m ~msg)
        evs
    in
    check_int "all events consumed" (Array.length evs) (Monitor.events m);
    w
  in
  let pmon evs =
    let t = Pmon.create ~window:16 ~nprocs plan_b2 in
    let w =
      words_fed
        (function
          | Stream.Send { msg; src; dst } ->
              ignore (Pmon.send t ~msg ~src ~dst ())
          | Stream.Deliver { msg } -> ignore (Pmon.deliver t ~msg))
        evs
    in
    check_bool "clean stream, no verdict" true (Pmon.verdict t = None);
    w
  in
  (* one unmeasured pass first, so one-time set-up is not counted *)
  ignore (monitor short);
  ignore (pmon short);
  Alcotest.(check (float 0.)) "Monitor: words at 10,000 events = at 100"
    (monitor short) (monitor long);
  Alcotest.(check (float 0.)) "Pmon: words at 10,000 events = at 100"
    (pmon short) (pmon long)

(* the wide (Bitset) frontier and its matcher allocate nothing per
   event either: a forced-wide monitor, asked for its pending count
   after every event, and a window-128 Pmon *)
let test_wide_allocation_free () =
  let short = clean_events 50 and long = clean_events 5_000 in
  let nprocs = Stream.default_profile.Stream.nprocs in
  let monitor evs =
    let m = Monitor.create ~window:16 ~wide:true ~nprocs () in
    check_bool "wide" true (Monitor.is_wide m);
    let w =
      words_fed
        (fun ev ->
          (match ev with
          | Stream.Send { msg; src; dst } -> Monitor.send m ~msg ~src ~dst ()
          | Stream.Deliver { msg } -> Monitor.deliver m ~msg);
          ignore (Monitor.pending m))
        evs
    in
    check_int "all events consumed" (Array.length evs) (Monitor.events m);
    w
  in
  let pmon evs =
    let t = Pmon.create ~window:128 ~nprocs plan_b2 in
    check_bool "window 128 is wide" true (Monitor.is_wide (Pmon.monitor t));
    (* the matcher builds its scratch at the first wide query *)
    ignore (Pmon.send t ~msg:(-1) ~src:0 ~dst:1 ());
    ignore (Pmon.deliver t ~msg:(-1));
    let w =
      words_fed
        (function
          | Stream.Send { msg; src; dst } ->
              ignore (Pmon.send t ~msg ~src ~dst ())
          | Stream.Deliver { msg } -> ignore (Pmon.deliver t ~msg))
        evs
    in
    check_bool "clean stream, no verdict" true (Pmon.verdict t = None);
    w
  in
  ignore (monitor short);
  ignore (pmon short);
  Alcotest.(check (float 0.))
    "wide Monitor: words at 10,000 events = at 100" (monitor short)
    (monitor long);
  Alcotest.(check (float 0.))
    "window-128 Pmon: words at 10,000 events = at 100" (pmon short)
    (pmon long)

(* ---- message ids ------------------------------------------------- *)

let reps = [ ("packed", false); ("wide", true) ]

(* ids are arbitrary ints, the free-slot sentinel and the extremes
   included, in both representations *)
let test_extreme_ids () =
  List.iter
    (fun (name, wide) ->
      let ids = [ -1; min_int; max_int ] in
      let t = Monitor.create ~window:4 ~wide ~nprocs:2 () in
      List.iter (fun msg -> Monitor.send t ~msg ~src:0 ~dst:1 ()) ids;
      check_int (name ^ ": all pending") 3 (Monitor.pending t);
      let held =
        List.filter_map
          (fun j ->
            match Monitor.slot_msg t j with
            | id -> Some id
            | exception Invalid_argument _ -> None)
          [ 0; 1; 2; 3 ]
      in
      check_bool (name ^ ": slots hold the ids") true
        (List.sort compare held = List.sort compare ids);
      List.iter
        (fun msg ->
          Alcotest.check_raises (name ^ ": duplicate send")
            (Invalid_argument "Monitor.send: duplicate send") (fun () ->
              Monitor.send t ~msg ~src:1 ~dst:0 ()))
        ids;
      List.iter (fun msg -> Monitor.deliver t ~msg) ids;
      check_int (name ^ ": all delivered") 0 (Monitor.pending t);
      (* a FIFO overtake whose witness is two extreme ids: the window
         above max_window gets the wide representation *)
      let p =
        Pmon.create ~window:(if wide then 64 else 16) ~nprocs:2 plan_fifo
      in
      check_bool (name ^ ": representation") wide
        (Monitor.is_wide (Pmon.monitor p));
      ignore (Pmon.send p ~msg:min_int ~src:0 ~dst:1 ());
      ignore (Pmon.send p ~msg:(-1) ~src:0 ~dst:1 ());
      match Pmon.deliver p ~msg:(-1) with
      | Some v ->
          check_bool (name ^ ": witness") true
            (Array.to_list v.Pmon.witness = [ min_int; -1 ])
      | None -> Alcotest.fail (name ^ ": overtake missed"))
    reps

(* an id stays taken until its slot retires, and the error paths raise
   as before *)
let test_id_reuse_and_errors () =
  List.iter
    (fun (name, wide) ->
      let raises what msg f =
        Alcotest.check_raises (name ^ ": " ^ what) (Invalid_argument msg) f
      in
      let t = Monitor.create ~window:2 ~wide ~nprocs:2 () in
      raises "deliver before any send" "Monitor.deliver: message not sent"
        (fun () -> Monitor.deliver t ~msg:(-1));
      Monitor.send t ~msg:0 ~src:0 ~dst:1 ();
      raises "duplicate send" "Monitor.send: duplicate send" (fun () ->
          Monitor.send t ~msg:0 ~src:1 ~dst:0 ());
      raises "unknown delivery" "Monitor.deliver: message not sent"
        (fun () -> Monitor.deliver t ~msg:7);
      Monitor.deliver t ~msg:0;
      raises "duplicate delivery" "Monitor.deliver: duplicate delivery"
        (fun () -> Monitor.deliver t ~msg:0);
      raises "re-send while delivered, not retired"
        "Monitor.send: duplicate send" (fun () ->
          Monitor.send t ~msg:0 ~src:0 ~dst:1 ());
      Monitor.send t ~msg:1 ~src:0 ~dst:1 ();
      Monitor.deliver t ~msg:1;
      (* the window is full: this send retires 0, the oldest delivery *)
      Monitor.send t ~msg:2 ~src:0 ~dst:1 ();
      check_int (name ^ ": 0 retired") 1 (Monitor.retired t);
      raises "delivery of a retired id" "Monitor.deliver: message not sent"
        (fun () -> Monitor.deliver t ~msg:0);
      Monitor.send t ~msg:0 ~src:0 ~dst:1 ();
      check_int (name ^ ": 1 retired") 2 (Monitor.retired t);
      Monitor.deliver t ~msg:0;
      raises "exhausted" "Monitor.send: window exhausted (every slot pending)"
        (fun () ->
          Monitor.send t ~msg:3 ~src:0 ~dst:1 ();
          Monitor.send t ~msg:4 ~src:0 ~dst:1 ());
      check_int (name ^ ": events") 8 (Monitor.events t))
    reps

(* ---- delta matching --------------------------------------------- *)

(* the monitor before delta matching: the full search after every
   event, the first match final *)
module Full = struct
  type t = {
    mon : Monitor.t;
    matcher : Eval.Masked.matcher;
    mutable verdict : Pmon.verdict option;
  }

  let create ~window ~distinct ~nprocs plan =
    {
      mon = Monitor.create ~window ~nprocs ();
      matcher = Eval.Masked.make ~distinct plan;
      verdict = None;
    }

  let check t =
    if t.verdict = None then
      let found =
        match Monitor.rep t.mon with
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
      in
      Option.iter
        (fun a ->
          t.verdict <-
            Some
              {
                Pmon.at = Monitor.events t.mon - 1;
                witness = Array.map (Monitor.slot_msg t.mon) a;
              })
        found
end

let delta_windows = [ 4; 16; 62; 100 ]
let delta_nprocs = 3

(* [f ~what ~window evs] over key streams at every window, disorder
   and seed, each long enough to retire slots at its window, with the
   in-flight bound within it *)
let each_stream f =
  List.iter
    (fun window ->
      List.iter
        (fun disorder ->
          List.iter
            (fun seed ->
              let profile =
                {
                  Stream.nprocs = delta_nprocs;
                  nmsgs = window + 20;
                  inflight = min 6 window;
                  disorder;
                }
              in
              f
                ~what:
                  (Printf.sprintf "window %d, disorder %g, seed %d" window
                     disorder seed)
                ~window
                (Stream.key_events profile ~seed ~key:window))
            [ 1; 2 ])
        [ 0.; 0.05; 0.3 ])
    delta_windows

(* delivering 1 at process 1 puts 0.s in 1's past, so 0.s ▷ 2.r holds
   for the message 2 still pending there: the crown {2, 0} is new at
   event 4, yet neither of its messages is the delivered one. Random
   key streams seldom make such a match the first one. *)
let relay_trace =
  Stream.
    [
      Send { msg = 0; src = 0; dst = 2 };
      Send { msg = 1; src = 0; dst = 1 };
      Send { msg = 2; src = 2; dst = 1 };
      Deliver { msg = 0 };
      Deliver { msg = 1 };
    ]

let delta_plans =
  List.map (fun (e : Catalog.entry) -> (e.Catalog.name, e.Catalog.pred))
    Catalog.all
  @ List.init 12 (fun seed ->
        ( Printf.sprintf "random %d" seed,
          Random_pred.guarded_predicate ~max_vars:5 ~seed () ))
  @ [ ("empty", Forbidden.make ~nvars:0 []) ]
  |> List.map (fun (name, p) -> (name, Eval.compile p))

(* on a clean stream at the wide window, the full search for these
   enumerates every causal chain of 4 (5) sends among 100 resident
   slots after every event: about 2 s (43 s) a stream. The nightly tier
   (MO_MONITOR_DEEP) runs them there too. *)
let delta_slow_wide = [ "k-weaker-causal-2"; "k-weaker-causal-3" ]

let show_verdict = function
  | None -> "none"
  | Some (v : Pmon.verdict) ->
      Printf.sprintf "%d with [%s]" v.Pmon.at
        (String.concat ","
           (List.map string_of_int (Array.to_list v.Pmon.witness)))

(* Pmon and the full-search monitor over one stream, every send
   colored so [color(x) = c] guards can hold: the same verdict after
   every event, for every predicate, distinct and not *)
let delta_agrees ~what ~window evs =
  let agree name plan distinct =
    let d = Pmon.create ~window ~distinct ~nprocs:delta_nprocs plan in
    let f = Full.create ~window ~distinct ~nprocs:delta_nprocs plan in
    List.iteri
      (fun i ev ->
        let got =
          match ev with
          | Stream.Send { msg; src; dst } ->
              let color = msg mod 3 in
              Monitor.send f.Full.mon ~msg ~src ~dst ~color ();
              Pmon.send d ~msg ~src ~dst ~color ()
          | Stream.Deliver { msg } ->
              Monitor.deliver f.Full.mon ~msg;
              Pmon.deliver d ~msg
        in
        Full.check f;
        if got <> f.Full.verdict then
          Alcotest.failf "%s, %s, distinct %b, event %d: delta %s, full %s"
            name what distinct i (show_verdict got)
            (show_verdict f.Full.verdict))
      evs
  in
  List.iter
    (fun (name, plan) ->
      if
        deep || window <= Monitor.max_window
        || not (List.mem name delta_slow_wide)
      then List.iter (agree name plan) [ true; false ])
    delta_plans

let test_delta_equals_full () =
  List.iter
    (fun window ->
      delta_agrees
        ~what:(Printf.sprintf "relay trace, window %d" window)
        ~window relay_trace)
    delta_windows;
  each_stream delta_agrees

(* the relay trace's verdict itself, packed and wide *)
let test_delta_other_pending () =
  let crown = Eval.compile (Catalog.sync_crown 2).Catalog.pred in
  List.iter
    (fun window ->
      let t = Pmon.create ~window ~nprocs:delta_nprocs crown in
      let verdicts =
        List.map
          (function
            | Stream.Send { msg; src; dst } -> Pmon.send t ~msg ~src ~dst ()
            | Stream.Deliver { msg } -> Pmon.deliver t ~msg)
          relay_trace
      in
      check_bool "clean before the delivery of 1" true
        (List.filteri (fun i _ -> i < 4) verdicts
        = [ None; None; None; None ]);
      match Pmon.verdict t with
      | Some v ->
          check_int "at the delivery of 1" 4 v.Pmon.at;
          check_bool "witness {2, 0}" true
            (Array.to_list v.Pmon.witness = [ 2; 0 ])
      | None -> Alcotest.failf "window %d: the crown {2, 0} missed" window)
    [ 16; 100 ]

(* feed [ev] to [m]; the first relation bit it set whose row slot and
   column slot are both untouched, as (row index, column), if any *)
let untouched_bit m ev =
  let feed () =
    match ev with
    | Stream.Send { msg; src; dst } -> Monitor.send m ~msg ~src ~dst ()
    | Stream.Deliver { msg } -> Monitor.deliver m ~msg
  in
  let first rows fresh =
    let rec go r =
      if r = Array.length rows then None
      else
        match fresh r rows.(r) with
        | Some y -> Some (r, y)
        | None -> go (r + 1)
    in
    go 0
  in
  let w = Monitor.window m in
  match Monitor.rep m with
  | Monitor.P p ->
      let before = Array.copy (Monitor.Packed.masks p) in
      feed ();
      let t = Monitor.Packed.touched p in
      first (Monitor.Packed.masks p) (fun r row ->
          let fresh = row land lnot before.(r) land lnot t in
          if t land (1 lsl (r mod w)) <> 0 || fresh = 0 then None
          else Some (Bitset.lowest_bit fresh))
  | Monitor.W wm ->
      let before = Array.map Bitset.copy (Monitor.Wide.rel wm) in
      feed ();
      let t = Monitor.Wide.touched wm in
      first (Monitor.Wide.rel wm) (fun r row ->
          let fresh = Bitset.copy row in
          Bitset.diff_into ~dst:fresh before.(r);
          Bitset.diff_into ~dst:fresh t;
          if Bitset.mem t (r mod w) || Bitset.is_empty fresh then None
          else Some (Bitset.next fresh 0))

(* after every event, every newly set bit of the eight sections has its
   row slot or its column slot among the touched ones *)
let test_touched_sound () =
  List.iter
    (fun wide ->
      each_stream (fun ~what ~window evs ->
          let m = Monitor.create ~window ~wide ~nprocs:delta_nprocs () in
          List.iteri
            (fun i ev ->
              Option.iter
                (fun (r, y) ->
                  Alcotest.failf
                    "%s%s, event %d: section %d bit %d.%d is new and \
                     untouched"
                    what
                    (if Monitor.is_wide m then ", wide" else "")
                    i (r / window) (r mod window) y)
                (untouched_bit m ev))
            evs))
    [ false; true ]

let () =
  Alcotest.run "monitor"
    [
      ( "differential",
        [
          Alcotest.test_case "earliest = oracle (exhaustive)" `Slow
            test_earliest_oracle;
          Alcotest.test_case "universe, counts pinned" `Slow
            test_differential_universe;
          Alcotest.test_case "deep tier (MO_MONITOR_DEEP)" `Slow
            test_differential_deep;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "jobs-independent reports" `Slow
            test_sharding_deterministic;
        ] );
      ( "window",
        [
          Alcotest.test_case "planted violation behind retirement" `Quick
            test_windowed_detection;
          Alcotest.test_case "frontier bytes bounded" `Quick
            test_frontier_bounded;
          Alcotest.test_case "exhaustion raises" `Quick
            test_window_exhaustion;
          Alcotest.test_case "wide = packed on truncated windows" `Slow
            test_wide_differential;
          Alcotest.test_case "window 128 (Bitset fallback)" `Quick
            test_wide_window_128;
        ] );
      ( "ids",
        [
          Alcotest.test_case "sentinel and extreme ids" `Quick
            test_extreme_ids;
          Alcotest.test_case "re-send after retirement, errors" `Quick
            test_id_reuse_and_errors;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "packed frontier and Pmon, per event" `Quick
            test_packed_allocation_free;
          Alcotest.test_case "wide frontier and Pmon, per event" `Quick
            test_wide_allocation_free;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_earliest_random ] );
      ( "delta",
        [
          Alcotest.test_case "delta = full search, per event" `Slow
            test_delta_equals_full;
          Alcotest.test_case "match through another pending delivery" `Quick
            test_delta_other_pending;
          Alcotest.test_case "touched covers every new bit" `Slow
            test_touched_sound;
        ] );
    ]
