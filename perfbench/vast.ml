(* vast-walk: the symmetry-quotiented model check of the vast tier,
   repeated in-process; the traced run splits one walk into config
   enumeration, the leaf walk, predicate evaluation and run counting. *)

open Mo_core
open Common

let expected =
  { Modelcheck.runs = 77_830_564; causal = 37_542_704; sync = 23_179_456 }

(* what `mopc universe --vast --sym` prints when the tier verifies *)
let cli_counts =
  Printf.sprintf "universe: %d runs, |X_sync| = %d, |X_co| = %d"
    expected.Modelcheck.runs expected.Modelcheck.sync
    expected.Modelcheck.causal

let count_sub s sub =
  let m = String.length sub in
  let rec go i acc =
    if i + m > String.length s then acc
    else if String.sub s i m = sub then go (i + m) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let walk () =
  Modelcheck.verify ~pool:(Lazy.force pool) ~sym:true
    ~sizes:Modelcheck.vast_sizes ()

let good (v : Modelcheck.verdict) =
  Modelcheck.ok v && v.Modelcheck.counts = expected

(* The set-up a one-shot user pays: the CLI walk from process start to
   exit, repeated [reps] times; the median wall time and the number of
   walks whose output was wrong. *)
let cold_walks ~mopc ~reps =
  let wall = Samples.create () and bad = ref 0 in
  for _ = 1 to reps do
    let t0 = now () in
    let ok, out =
      Proc.run_capture mopc
        [ "universe"; "--vast"; "--sym"; "--jobs"; string_of_int jobs ]
    in
    Samples.add wall (now () -. t0);
    if not (ok && count_sub out cli_counts = 1 && count_sub out "[ok]" = 4)
    then
      incr bad
  done;
  (Samples.median wall, !bad)

let setup_reps = 5

let run ~seconds ~mopc =
  let setup_s, bad = cold_walks ~mopc ~reps:setup_reps in
  let attempted = ref setup_reps and failed = ref bad in
  let check v =
    incr attempted;
    if not (good v) then incr failed
  in
  (* one untimed in-process walk: compiled plans forced, heap grown *)
  check (walk ());
  let lat = Samples.create () in
  let deadline = now () +. seconds in
  while now () < deadline || Samples.count lat < 3 do
    let t0 = now () in
    let v = walk () in
    Samples.add lat (now () -. t0);
    check v
  done;
  (* Each walk is its own window (see Windows): the run's figure is the
     walks' quartile on the fast side, so other tenants slowing a vCPU
     for a few walks do not move it. *)
  let fast = Samples.percentile lat 25. in
  {
    attempted = !attempted;
    failed = !failed;
    metrics =
      [
        ("items_per_s", float_of_int expected.Modelcheck.runs /. fast, "1/s");
        ("latency_p50_ms", fast *. 1e3, "ms");
        ("latency_tail_ms", fast *. 1e3, "ms");
        ("peak_rss_mb", peak_rss_mb "self", "MB");
        ("setup_s", setup_s, "s");
      ];
  }

(* ---- traced layers ------------------------------------------------ *)

let orbit_configs = 473

(* The verify forms: the three Lemma 3.2 causal predicates and the
   Lemma 3.3 order-0 forms, compiled once. *)
let forms =
  lazy
    (List.map
       (fun (e : Catalog.entry) -> Eval.compile e.Catalog.pred)
       (Catalog.causal_b1 :: Catalog.causal_b2 :: Catalog.causal_b3
       :: Catalog.async_forms))

(* Fold every canonical run of the orbit configurations [cfgs] over the
   pool, as the sharded walk does once its configurations are known;
   [f acc ~mult run] sees each canonical run with its orbit weight. *)
let fold_orbits pool ~nprocs cfgs ~init ~f ~merge =
  let cfgs = Array.of_list cfgs in
  Mo_par.Pool.fold pool (Array.length cfgs)
    ~f:(fun i ->
      let msgs, cmult = cfgs.(i) in
      let mult = cmult * Mo_order.Enumerate.sym_mult ~msgs in
      Mo_order.Enumerate.fold_abstracts_sym ~nprocs ~msgs ~init
        ~f:(fun acc r -> f acc ~mult r)
        ())
    ~merge ~init

(* [reps] decompositions of a walk, each layer timed by its own call:
   the orbit configurations (enumerated serially per size); the walk
   over them with a counting callback; the same walk evaluating the
   verify forms and the causal/sync limits on every run (predicate
   evaluation is its excess over the counting walk); every
   configuration's runs counted without a walk; and verify itself, for
   the tracing overhead. With [~overhead], an identical pass that
   records no spans runs first, and the overhead compares the median
   verify between the two. *)
let trace tr ~reps ~overhead:with_overhead =
  let pool = Lazy.force pool in
  let forms = Lazy.force forms in
  let sizes = Modelcheck.vast_sizes in
  let attempted = ref 0 and failed = ref 0 in
  let expect what got want =
    incr attempted;
    if got <> want then begin
      log "vast-walk: %s = %d, expected %d" what got want;
      incr failed
    end
  in
  let verified v =
    incr attempted;
    if not (good v) then incr failed
  in
  verified (walk ());
  let ncfgs = ref 0 and counted = ref 0 in
  let pass tr verify_lat =
    for rep = 1 to reps do
      let span name f = Spans.span tr ~parent:"vast.walk" ~group:rep name f in
      let cfgs =
        span "enumerate.configs" (fun () ->
            List.map
              (fun (nprocs, nmsgs) ->
                (nprocs, Mo_order.Enumerate.configs_sym ~nprocs ~nmsgs ()))
              sizes)
      in
      ncfgs := List.fold_left (fun n (_, c) -> n + List.length c) 0 cfgs;
      expect "orbit configs" !ncfgs orbit_configs;
      let over_sizes f merge zero =
        List.fold_left
          (fun acc (nprocs, cs) -> merge acc (f ~nprocs cs))
          zero cfgs
      in
      let runs =
        span "enumerate.walk" (fun () ->
            over_sizes
              (fun ~nprocs cs ->
                fold_orbits pool ~nprocs cs ~init:0
                  ~f:(fun n ~mult _ -> n + mult)
                  ~merge:( + ))
              ( + ) 0)
      in
      expect "walked runs" runs expected.Modelcheck.runs;
      let add (a, b, c) (x, y, z) = (a + x, b + y, c + z) in
      let eval_runs, causal, sync =
        span "eval.walk" (fun () ->
            over_sizes
              (fun ~nprocs cs ->
                fold_orbits pool ~nprocs cs ~init:(0, 0, 0)
                  ~f:(fun (n, c, y) ~mult r ->
                    List.iter (fun f -> ignore (Eval.satisfies_c f r)) forms;
                    ( n + mult,
                      (c + if Mo_order.Limits.is_causal r then mult else 0),
                      y + if Mo_order.Limits.is_sync r then mult else 0 ))
                  ~merge:add)
              add (0, 0, 0))
      in
      expect "evaluated runs" eval_runs expected.Modelcheck.runs;
      expect "causal runs" causal expected.Modelcheck.causal;
      expect "sync runs" sync expected.Modelcheck.sync;
      let t0 = now () in
      let v = span "modelcheck.verify" walk in
      Samples.add verify_lat (now () -. t0);
      verified v;
      counted :=
        span "enumerate.count" (fun () ->
            List.fold_left
              (fun acc (nprocs, cs) ->
                List.fold_left
                  (fun acc (msgs, mult) ->
                    acc
                    + (mult * Mo_order.Enumerate.count_runs_sym ~nprocs ~msgs))
                  acc cs)
              0 cfgs);
      expect "counted runs" !counted expected.Modelcheck.runs
    done
  in
  let untraced = Samples.create () and traced = Samples.create () in
  if with_overhead then pass Spans.null untraced;
  pass tr traced;
  let ms name = Spans.median tr name *. 1e3 in
  {
    layers =
      [
        ("enumerate.configs_ms", ms "enumerate.configs", "ms");
        ("enumerate.walk_ms", ms "enumerate.walk", "ms");
        ("eval.ms", ms "eval.walk" -. ms "enumerate.walk", "ms");
        ("enumerate.count_ms", ms "enumerate.count", "ms");
        ("enumerate.orbit_configs", float_of_int !ncfgs, "count");
        ("modelcheck.runs", float_of_int !counted, "count");
      ];
    t_attempted = !attempted;
    t_failed = !failed;
    overhead_pct =
      (if with_overhead then
         Some
           (overhead ~untraced:(Samples.median untraced)
              ~traced:(Samples.median traced))
       else None);
  }
