(* monitor-keys: keyed event streams, one compiled predicate monitor
   (Pmon) per key at window 16, keys rotating over three predicates, all
   on one thread. Each key's events are generated outside its timed
   span; each key's outcome is checked against a replay through the
   library's own keyed driver (Stream.monitor_keys). *)

open Mo_core
open Common
module Stream = Mo_workload.Stream

let window = 16

let profile = { Stream.default_profile with Stream.disorder = 0.05 }

let preds =
  [| Catalog.fifo; Catalog.causal_b2; Catalog.sync_crown 2 |]
  |> Array.map (fun (e : Catalog.entry) -> e.Catalog.pred)

let compile () = Array.map Eval.compile preds

(* Each key is its own stream: seed and key number mixed into the
   stream seed, so the replay can regenerate exactly one key. *)
let key_seed ~seed k = (seed * 1_048_576) + k

let events ~seed k = Stream.key_events profile ~seed:(key_seed ~seed k) ~key:0

let feed t evs =
  List.iter
    (function
      | Stream.Send { msg; src; dst } -> ignore (Pmon.send t ~msg ~src ~dst ())
      | Stream.Deliver { msg } -> ignore (Pmon.deliver t ~msg))
    evs

(* the monitor of one key; the span under test *)
let monitor_key plan evs =
  let t = Pmon.create ~window ~nprocs:profile.Stream.nprocs plan in
  feed t evs;
  t

let outcome t =
  let m = Pmon.monitor t in
  ( Mo_order.Monitor.events m,
    Pmon.verdict t,
    Mo_order.Monitor.frontier_bytes m )

let serial = lazy (Mo_par.Pool.create ~jobs:1 ())

(* the same key through Stream's driver: the correctness oracle *)
let replay ~seed plans k =
  let r =
    (Stream.monitor_keys ~pool:(Lazy.force serial) ~pred:plans.(k mod 3)
       ~window ~profile ~nkeys:1 ~seed:(key_seed ~seed k) ()).(0)
  in
  (r.Stream.events, r.Stream.verdict, r.Stream.frontier_bytes)

let warmup_keys = 10_000

(* set-up: compile the predicates and run the untimed warm-up keys *)
let setup ~seed =
  let plans = compile () in
  for k = 0 to warmup_keys - 1 do
    ignore (monitor_key plans.(k mod 3) (events ~seed:(seed + 1) k))
  done;
  plans

type tally = {
  mutable keys : int;
  mutable events : int;
  mutable violations : int;
  mutable failed : int;
}

(* Monitor keys [0, 1, ...] until [stop keys] holds; every key checked. *)
let drive ?(on_key = fun ~at:_ ~latency:_ ~items:_ -> ()) ~seed plans ~stop =
  let t = { keys = 0; events = 0; violations = 0; failed = 0 } in
  while not (stop t.keys) do
    let k = t.keys in
    let evs = events ~seed k in
    let t0 = now () in
    let m = monitor_key plans.(k mod 3) evs in
    let t1 = now () in
    let ((n, verdict, _) as got) = outcome m in
    on_key ~at:t1 ~latency:(t1 -. t0) ~items:n;
    if got <> replay ~seed plans k then t.failed <- t.failed + 1;
    t.keys <- k + 1;
    t.events <- t.events + n;
    if Option.is_some verdict then t.violations <- t.violations + 1
  done;
  t

let setup_reps = 5

let run ~seed ~seconds =
  let setup_s = median_of ~reps:setup_reps (fun () -> ignore (setup ~seed)) in
  let plans = compile () in
  (* events per second of monitoring, key latencies: quarter-second
     windows of ~10k keys *)
  let t0 = now () in
  let w = Windows.create ~t0 ~seconds ~width:0.25 in
  let deadline = t0 +. seconds in
  let t =
    drive ~seed plans ~on_key:(Windows.add w)
      ~stop:(fun _ -> now () >= deadline)
  in
  let rate, p50, tail = Windows.summary w ~busy:true in
  {
    attempted = t.keys;
    failed = t.failed;
    metrics =
      [
        ("items_per_s", rate, "1/s");
        ("latency_p50_ms", p50 *. 1e3, "ms");
        ("latency_tail_ms", tail *. 1e3, "ms");
        ("peak_rss_mb", peak_rss_mb "self", "MB");
        ("setup_s", setup_s, "s");
      ];
  }

(* ---- traced layers ------------------------------------------------- *)

(* the frontier automaton alone, no predicate *)
let frontier_key evs =
  let m = Mo_order.Monitor.create ~window ~nprocs:profile.Stream.nprocs () in
  List.iter
    (function
      | Stream.Send { msg; src; dst } ->
          Mo_order.Monitor.send m ~msg ~src ~dst ()
      | Stream.Deliver { msg } -> Mo_order.Monitor.deliver m ~msg)
    evs

(* [keys] keys, each through its Pmon and then through the bare
   frontier; the match cost is the difference, key by key, and every
   key is checked against the replay. With [~overhead], an identical
   pass that records no spans runs first, and the overhead compares the
   median Pmon key between the two. *)
let trace tr ~seed ~keys ~overhead:with_overhead =
  let plans = setup ~seed in
  let nevents = ref 0 and violations = ref 0 and failed = ref 0 in
  let pass tr lat =
    nevents := 0;
    violations := 0;
    for k = 0 to keys - 1 do
      let evs = events ~seed k in
      let p0 = now () in
      let m = monitor_key plans.(k mod 3) evs in
      let p1 = now () in
      frontier_key evs;
      let f1 = now () in
      Samples.add lat (p1 -. p0);
      Spans.add tr ~group:k "pmon.key" p0 p1;
      Spans.add tr ~group:k "monitor.frontier" p1 f1;
      (* the monitor's self time over the bare frontier *)
      Spans.add tr ~parent:"pmon.key" ~group:k "pmon.match" p0
        (p0 +. (p1 -. p0) -. (f1 -. p1));
      let ((n, verdict, _) as got) = outcome m in
      if got <> replay ~seed plans k then incr failed;
      nevents := !nevents + n;
      if Option.is_some verdict then incr violations
    done
  in
  let untraced = Samples.create () and traced = Samples.create () in
  if with_overhead then pass Spans.null untraced;
  pass tr traced;
  {
    layers =
      [
        ( "monitor.frontier_us",
          Spans.median tr "monitor.frontier" *. 1e6,
          "us" );
        ("pmon.match_us", Spans.median tr "pmon.match" *. 1e6, "us");
        ("monitor.events", float_of_int !nevents, "count");
        ("monitor.violations", float_of_int !violations, "count");
      ];
    t_attempted = (if with_overhead then 2 * keys else keys);
    t_failed = !failed;
    overhead_pct =
      (if with_overhead then
         Some
           (overhead ~untraced:(Samples.median untraced)
              ~traced:(Samples.median traced))
       else None);
  }
