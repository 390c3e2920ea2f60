(* The parallel engine's contract is determinism: for any job count and
   chunk size, every Pool combinator returns byte-identical results, and
   the ported hot paths (universe enumeration, schedule exploration, the
   fault matrix, metrics aggregation) agree with their sequential
   references. These tests pin that contract, so they are meaningful even
   on a single-core host — on a multicore one they additionally exercise
   the shared helpers claiming chunks concurrently. *)

open Mo_core
open Mo_protocol
open Mo_workload

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let pool_of jobs = Mo_par.Pool.create ~jobs ()
let job_counts = [ 1; 2; 4; 7 ]

(* ------------------------------------------------------------------ *)
(* Pool combinators                                                    *)

let test_pool_map_identity () =
  let n = 103 in
  let f i = (i * i) - (3 * i) in
  let expected = Array.init n f in
  List.iter
    (fun jobs ->
      let pool = pool_of jobs in
      check_int "jobs clamp" (max 1 jobs) (Mo_par.Pool.jobs pool);
      Alcotest.(check (array int))
        (Printf.sprintf "map at %d jobs" jobs)
        expected
        (Mo_par.Pool.map pool n ~f);
      List.iter
        (fun chunk ->
          Alcotest.(check (array int))
            (Printf.sprintf "map at %d jobs, chunk %d" jobs chunk)
            expected
            (Mo_par.Pool.map pool ~chunk n ~f))
        [ 1; 2; 5; 64; 1000 ])
    job_counts;
  Alcotest.(check (array int))
    "empty map" [||]
    (Mo_par.Pool.map (pool_of 4) 0 ~f)

let test_pool_fold_identity () =
  (* a deliberately non-commutative merge: string concatenation. The
     pool must merge in index order regardless of which domain computed
     what, so the folded string is identical everywhere. *)
  let n = 57 in
  let f i = Printf.sprintf "[%d]" i in
  let expected = String.concat "" (List.init n f) in
  List.iter
    (fun jobs ->
      check_string
        (Printf.sprintf "ordered fold at %d jobs" jobs)
        expected
        (Mo_par.Pool.fold (pool_of jobs) n ~f ~merge:( ^ ) ~init:""))
    job_counts

let test_pool_errors () =
  Alcotest.check_raises "jobs must be positive"
    (Invalid_argument "Mo_par.Pool.create: jobs must be >= 1") (fun () ->
      ignore (Mo_par.Pool.create ~jobs:0 ()));
  (* a worker exception aborts the whole map and is re-raised in the
     caller, at every job count; the shared helpers survive it, so the
     next map on the same pool is the identity schedule again *)
  List.iter
    (fun jobs ->
      let pool = pool_of jobs in
      for round = 1 to 3 do
        (match
           Mo_par.Pool.map pool ~chunk:1 40 ~f:(fun i ->
               if i mod 5 = round then failwith "boom" else i)
         with
        | _ -> Alcotest.fail "expected the worker failure to propagate"
        | exception Failure m -> check_string "propagated failure" "boom" m);
        Alcotest.(check (array int))
          (Printf.sprintf "map after a failure at %d jobs" jobs)
          (Array.init 40 Fun.id)
          (Mo_par.Pool.map pool 40 ~f:Fun.id)
      done)
    job_counts

let test_pool_concurrent_callers () =
  (* several domains mapping and folding over one shared pool at once
     get exactly what a lone caller gets *)
  let n = 211 in
  let f i = Printf.sprintf "<%d>" (i * 7) in
  let expected = String.concat "" (List.init n f) in
  List.iter
    (fun jobs ->
      let pool = pool_of jobs in
      let rounds () =
        List.init 12 (fun r ->
            if r mod 2 = 0 then
              String.concat "" (Array.to_list (Mo_par.Pool.map pool n ~f))
            else
              Mo_par.Pool.fold pool ~chunk:r n ~f ~merge:( ^ ) ~init:"")
      in
      let callers = List.init 3 (fun _ -> Domain.spawn rounds) in
      let mine = rounds () in
      List.iteri
        (fun c got ->
          List.iter
            (check_string
               (Printf.sprintf "caller %d at %d jobs" c jobs)
               expected)
            got)
        (mine :: List.map Domain.join callers))
    job_counts

let test_pool_many_pools () =
  (* pools are cheap handles over one helper set: 500 of them map fine,
     and the helpers never outnumber the largest jobs - 1 asked for *)
  for k = 0 to 499 do
    let pool = pool_of (1 + (k mod 7)) in
    Alcotest.(check (array int))
      (Printf.sprintf "pool %d" k)
      (Array.init 16 (fun i -> i + k))
      (Mo_par.Pool.map pool 16 ~f:(fun i -> i + k))
  done;
  let largest = max 7 (Mo_par.default_jobs ()) in
  check_bool
    (Printf.sprintf "%d helpers <= %d" (Mo_par.Pool.helpers ()) (largest - 1))
    true
    (Mo_par.Pool.helpers () <= largest - 1)

(* a one-shot gate domains can block on without spinning *)
let gate () = (Mutex.create (), Condition.create (), ref false)

let gate_wait (m, c, opened) =
  Mutex.protect m (fun () ->
      while not !opened do
        Condition.wait c m
      done)

let gate_open (m, c, opened) =
  Mutex.protect m (fun () ->
      opened := true;
      Condition.broadcast c)

let test_pool_no_wait_for_sleeping_helper () =
  (* park every shared helper inside a blocked map, then map 4 items at
     jobs 2 on another domain: its helper task can only sit in the
     queue, so the caller must run all four chunks itself and return
     without that helper ever waking *)
  ignore (Mo_par.Pool.map (pool_of 2) 2 ~f:Fun.id);
  let h = Mo_par.Pool.helpers () in
  let parked = Atomic.make 0 and release = gate () in
  let blocker =
    Domain.spawn (fun () ->
        Mo_par.Pool.map (pool_of (h + 1)) ~chunk:1 (h + 1) ~f:(fun i ->
            Atomic.incr parked;
            gate_wait release;
            i))
  in
  while Atomic.get parked < h + 1 do
    Unix.sleepf 0.001
  done;
  let finished = Atomic.make false in
  let probe =
    Domain.spawn (fun () ->
        let r = Mo_par.Pool.map (pool_of 2) 4 ~f:(fun i -> 10 * i) in
        Atomic.set finished true;
        r)
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  let returned_while_parked = Atomic.get finished in
  gate_open release;
  Alcotest.(check (array int))
    "probe result" [| 0; 10; 20; 30 |] (Domain.join probe);
  Alcotest.(check (array int))
    "blocked map result" (Array.init (h + 1) Fun.id) (Domain.join blocker);
  check_bool "4-item map returned while every helper was parked" true
    returned_while_parked;
  check_int "no helper was added" h (Mo_par.Pool.helpers ())

let test_seeded_streams () =
  (* per-stream PRNGs: distinct streams differ, same stream reproduces *)
  let draw ~seed ~stream =
    let st = Mo_par.rng ~seed ~stream in
    List.init 8 (fun _ -> Random.State.bits st)
  in
  check_bool "same stream reproduces" true
    (draw ~seed:1 ~stream:3 = draw ~seed:1 ~stream:3);
  check_bool "streams are distinct" true
    (draw ~seed:1 ~stream:0 <> draw ~seed:1 ~stream:1);
  check_bool "seeds are distinct" true
    (draw ~seed:1 ~stream:0 <> draw ~seed:2 ~stream:0)

(* ------------------------------------------------------------------ *)
(* Universe enumeration and the Lemma 3 identities                     *)

let test_universe_counts_all_jobs () =
  (* the paper's pinned cardinalities, at every job count *)
  List.iter
    (fun jobs ->
      let c =
        Modelcheck.count ~pool:(pool_of jobs)
          ~sizes:Modelcheck.standard_sizes ()
      in
      let label = Printf.sprintf "at %d jobs" jobs in
      check_int ("|X_async| " ^ label) 2804 c.Modelcheck.runs;
      check_int ("|X_co| " ^ label) 1840 c.Modelcheck.causal;
      check_int ("|X_sync| " ^ label) 1424 c.Modelcheck.sync)
    job_counts

let test_universe_verdict () =
  let v =
    Modelcheck.verify ~pool:(pool_of 4) ~sizes:Modelcheck.standard_sizes ()
  in
  check_bool "subset chain" true v.Modelcheck.subset_chain;
  check_bool "lemma 3.2 equivalence" true v.Modelcheck.lemma32_equiv;
  check_bool "lemma 3.2 exactness" true v.Modelcheck.lemma32_exact;
  check_bool "lemma 3.3 unsatisfiable" true v.Modelcheck.lemma33_unsat;
  check_bool "ok" true (Modelcheck.ok v)

(* ------------------------------------------------------------------ *)
(* Parallel schedule exploration                                       *)

let explore_protocols =
  [
    ("tagless", Tagless.factory);
    ("fifo", Fifo.factory);
    ("sync-token", Sync_token.factory);
  ]

let crossing_ops =
  [ Sim.op ~at:0 ~src:0 ~dst:1 (); Sim.op ~at:0 ~src:1 ~dst:0 () ]

let same_channel_ops =
  [
    Sim.op ~at:0 ~src:0 ~dst:1 ();
    Sim.op ~at:1 ~src:0 ~dst:1 ();
    Sim.op ~at:2 ~src:1 ~dst:0 ();
  ]

let views_fingerprint ~pool ~nprocs factory ops =
  match Explore.distinct_user_views_par ~pool ~nprocs factory ops with
  | Error e -> Alcotest.fail e
  | Ok (views, stats) ->
      ( List.map Explore.view_key views,
        stats.Explore.executions,
        stats.Explore.truncated )

let test_explore_par_matches_sequential () =
  List.iter
    (fun (pname, factory) ->
      List.iter
        (fun (wname, ops) ->
          let seq_views =
            match Explore.distinct_user_views ~nprocs:2 factory ops with
            | Ok vs -> List.map Explore.view_key vs
            | Error e -> Alcotest.fail e
          in
          let seq_stats =
            match
              Explore.explore ~nprocs:2 factory ops ~on_outcome:(fun _ -> ())
            with
            | Ok s -> s
            | Error e -> Alcotest.fail e
          in
          List.iter
            (fun jobs ->
              let label = Printf.sprintf "%s/%s at %d jobs" pname wname jobs in
              let views, execs, truncated =
                views_fingerprint ~pool:(pool_of jobs) ~nprocs:2 factory ops
              in
              check_bool (label ^ ": views identical") true (views = seq_views);
              check_int (label ^ ": execution count")
                seq_stats.Explore.executions execs;
              check_bool (label ^ ": not truncated") false truncated)
            job_counts)
        [ ("crossing", crossing_ops); ("same-channel", same_channel_ops) ])
    explore_protocols

let test_explore_par_budget () =
  (* the shared budget truncates at exactly the sequential count *)
  let ops = same_channel_ops in
  match
    Explore.explore_par ~pool:(pool_of 4) ~max_executions:10 ~nprocs:2
      Fifo.factory ops ~init:0
      ~f:(fun acc _ -> acc + 1)
      ~merge:( + ) ()
  with
  | Error e -> Alcotest.fail e
  | Ok (folded, stats) ->
      check_int "exactly the budget was folded" 10 folded;
      check_int "stats agree" 10 stats.Explore.executions;
      check_bool "truncated" true stats.Explore.truncated

let test_explore_par_misbehaviour () =
  (* a protocol that delivers a message it never received must be
     reported as a protocol error, not crash the pool *)
  let broken =
    {
      Protocol.proto_name = "broken";
      kind = Protocol.Tagged;
      make =
        (fun ~nprocs:_ ~me:_ ->
          {
            Protocol.on_invoke =
              (fun ~now:_ i -> [ Protocol.Deliver i.Protocol.id ]);
            on_packet = (fun ~now:_ ~from:_ _ -> []);
            on_timer = (fun ~now:_ ~key:_ -> []);
            pending_depth = (fun () -> 0);
          });
    }
  in
  match
    Explore.explore_par ~pool:(pool_of 2) ~nprocs:2 broken crossing_ops
      ~init:() ~f:(fun () _ -> ()) ~merge:(fun () () -> ()) ()
  with
  | Ok _ -> Alcotest.fail "expected a misbehaviour"
  | Error e -> check_bool "diagnostic mentions the delivery" true
                 (String.length e > 0)

(* ------------------------------------------------------------------ *)
(* Fault-matrix sharding                                               *)

let test_fault_matrix_jobs_agree () =
  (* a slice of the conformance grid: verdicts must be identical when
     the cells are run sequentially and on a 4-worker pool *)
  let cells =
    Array.of_list
      [
        ("fifo", Fifo.factory, 1);
        ("fifo", Fifo.factory, 2);
        ("causal-rst", Causal_rst.factory, 1);
        ("causal-rst", Causal_rst.factory, 2);
        ("sync-token", Sync_token.factory, 1);
        ("tagless", Tagless.factory, 3);
      ]
  in
  let ops = (Gen.uniform ~nprocs:3 ~nmsgs:20 ~seed:6).Gen.ops in
  let faults = Net.make ~drop_permille:150 () in
  let run_cell (_, factory, seed) =
    let cfg = { (Sim.default_config ~nprocs:3) with Sim.seed; faults } in
    let r = Conformance.check_exn cfg (Wrap.reliable factory) ops in
    (r.Conformance.live, r.Conformance.traffic_consistent)
  in
  let verdicts_at jobs =
    Mo_par.Pool.map (pool_of jobs) (Array.length cells) ~f:(fun i ->
        run_cell cells.(i))
  in
  let v1 = verdicts_at 1 in
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "verdicts at %d jobs match sequential" jobs)
        true
        (verdicts_at jobs = v1))
    [ 2; 4 ];
  Array.iteri
    (fun i (live, traffic) ->
      let name, _, seed = cells.(i) in
      check_bool (Printf.sprintf "%s seed %d live" name seed) true live;
      check_bool
        (Printf.sprintf "%s seed %d traffic" name seed)
        true traffic)
    v1

(* ------------------------------------------------------------------ *)
(* Metrics merging                                                     *)

let fill_registry ~scale r =
  let c = Mo_obs.Metrics.counter r "m.count" in
  for _ = 1 to 3 * scale do
    Mo_obs.Metrics.inc c
  done;
  let g = Mo_obs.Metrics.gauge r "m.depth" in
  Mo_obs.Metrics.set g (10 * scale);
  let h = Mo_obs.Metrics.histogram r ~buckets:[ 1; 10; 100 ] "m.lat" in
  List.iter
    (fun v -> Mo_obs.Metrics.observe h (v * scale))
    [ 1; 5; 50; 200 ]

let test_metrics_merge () =
  let a = Mo_obs.Metrics.create () and b = Mo_obs.Metrics.create () in
  fill_registry ~scale:1 a;
  fill_registry ~scale:2 b;
  (* merge is commutative on the exported values *)
  let merged_ab =
    let into = Mo_obs.Metrics.create () in
    Mo_obs.Metrics.merge ~into a;
    Mo_obs.Metrics.merge ~into b;
    Mo_obs.Jsonb.to_string (Mo_obs.Metrics.to_json into)
  in
  let merged_ba =
    let into = Mo_obs.Metrics.create () in
    Mo_obs.Metrics.merge ~into b;
    Mo_obs.Metrics.merge ~into a;
    Mo_obs.Jsonb.to_string (Mo_obs.Metrics.to_json into)
  in
  check_string "merge order does not matter" merged_ab merged_ba;
  let into = Mo_obs.Metrics.create () in
  Mo_obs.Metrics.merge ~into a;
  Mo_obs.Metrics.merge ~into b;
  check_bool "counters add" true
    (Mo_obs.Metrics.value into "m.count" = Some 9);
  check_bool "gauges keep the high watermark" true
    (Mo_obs.Metrics.value into "m.depth" = Some 20);
  (match Mo_obs.Metrics.find_histogram into "m.lat" with
  | None -> Alcotest.fail "merged histogram missing"
  | Some h ->
      check_int "histogram counts add" 8 (Mo_obs.Metrics.hist_count h);
      check_int "histogram sums add" ((1 + 5 + 50 + 200) * 3)
        (Mo_obs.Metrics.hist_sum h));
  (* merging a registry into itself is a programming error *)
  Alcotest.check_raises "self merge rejected"
    (Invalid_argument "Metrics.merge: cannot merge a registry into itself")
    (fun () -> Mo_obs.Metrics.merge ~into:a a);
  (* kind mismatches are errors, not silent corruption *)
  let x = Mo_obs.Metrics.create () and y = Mo_obs.Metrics.create () in
  ignore (Mo_obs.Metrics.counter x "clash");
  ignore (Mo_obs.Metrics.gauge y "clash");
  check_bool "kind mismatch raises" true
    (match Mo_obs.Metrics.merge ~into:x y with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_metrics_merge_parallel () =
  (* the aggregation pattern the engine uses: one registry per worker,
     merged at join — export equals a single-registry sequential run *)
  let expected =
    let r = Mo_obs.Metrics.create () in
    for scale = 1 to 8 do
      fill_registry ~scale r
    done;
    Mo_obs.Jsonb.to_string (Mo_obs.Metrics.to_json r)
  in
  List.iter
    (fun jobs ->
      let registries =
        Mo_par.Pool.map (pool_of jobs) 8 ~f:(fun i ->
            let r = Mo_obs.Metrics.create () in
            fill_registry ~scale:(i + 1) r;
            r)
      in
      let into = Mo_obs.Metrics.create () in
      Array.iter (fun r -> Mo_obs.Metrics.merge ~into r) registries;
      check_string
        (Printf.sprintf "merged export at %d jobs" jobs)
        expected
        (Mo_obs.Jsonb.to_string (Mo_obs.Metrics.to_json into)))
    job_counts

(* ------------------------------------------------------------------ *)
(* Jsonb parsing (the bench-regression gate reads BENCH_*.json)        *)

(* jsonb.mli's law, of_string (to_string v) = Ok v, compact and pretty,
   over random trees: strings and keys over all 256 byte values, nested
   lists and objects, min_int and max_int, and floats that print
   exactly *)
let rec gen_json depth rng =
  let module J = Mo_obs.Jsonb in
  let str rng =
    String.init (Prop.int_range 0 10 rng) (fun _ ->
        Char.chr (Random.State.int rng 256))
  in
  match Prop.int_range 0 (if depth = 0 then 4 else 6) rng with
  | 0 -> J.Null
  | 1 -> J.Bool (Random.State.bool rng)
  | 2 ->
      J.Int
        (Prop.oneof
           [ 0; -1; 7; min_int; max_int; min_int + 1; Random.State.bits rng ]
           rng)
  | 3 ->
      J.Float
        (Prop.oneof
           [ 0.; 2.5; -0.125; 1e15; 3e20; 123456.; -7.; 1.5e-7;
             float_of_int (Random.State.bits rng) ]
           rng)
  | 4 -> J.String (str rng)
  | 5 -> J.List (List.init (Prop.int_range 0 4 rng) (fun _ -> gen_json (depth - 1) rng))
  | _ ->
      J.Obj
        (List.init (Prop.int_range 0 4 rng) (fun _ ->
             (str rng, gen_json (depth - 1) rng)))

let test_jsonb_roundtrip =
  Prop.test ~count:2000 ~seed:2205 ~name:"jsonb round trip" (gen_json 4)
    ~pp:Mo_obs.Jsonb.to_string (fun v ->
      Mo_obs.Jsonb.of_string (Mo_obs.Jsonb.to_string v) = Ok v
      && Mo_obs.Jsonb.of_string (Mo_obs.Jsonb.to_string_pretty v) = Ok v)

let test_jsonb_errors () =
  List.iter
    (fun bad ->
      match Mo_obs.Jsonb.of_string bad with
      | Ok _ -> Alcotest.fail ("parser should reject: " ^ bad)
      | Error _ -> ())
    [
      "";
      "{";
      "[1,]";
      "{\"a\":}";
      "{\"a\" 1}";
      "tru";
      "1 2";
      "\"unterminated";
      "{\"a\":1,}";
      "nan";
    ];
  match Mo_obs.Jsonb.of_string "  {\"a\" : [1, -2.5e1, \"x\"]}  " with
  | Ok j ->
      check_string "whitespace tolerated" "{\"a\":[1,-25.0,\"x\"]}"
        (Mo_obs.Jsonb.to_string j)
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map is the identity schedule" `Quick
            test_pool_map_identity;
          Alcotest.test_case "fold merges in index order" `Quick
            test_pool_fold_identity;
          Alcotest.test_case "errors propagate" `Quick test_pool_errors;
          Alcotest.test_case "concurrent callers on one pool" `Quick
            test_pool_concurrent_callers;
          Alcotest.test_case "500 pools share bounded helpers" `Quick
            test_pool_many_pools;
          Alcotest.test_case "never waits for a sleeping helper" `Quick
            test_pool_no_wait_for_sleeping_helper;
          Alcotest.test_case "seeded per-stream rngs" `Quick
            test_seeded_streams;
        ] );
      ( "universe",
        [
          Alcotest.test_case "pinned counts at every job count" `Quick
            test_universe_counts_all_jobs;
          Alcotest.test_case "lemma identities verified in parallel" `Quick
            test_universe_verdict;
        ] );
      ( "explore",
        [
          Alcotest.test_case "parallel views match sequential" `Slow
            test_explore_par_matches_sequential;
          Alcotest.test_case "shared budget truncates exactly" `Quick
            test_explore_par_budget;
          Alcotest.test_case "misbehaviour is reported" `Quick
            test_explore_par_misbehaviour;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "verdicts identical across job counts" `Slow
            test_fault_matrix_jobs_agree;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "merge semantics" `Quick test_metrics_merge;
          Alcotest.test_case "per-worker registries merge to sequential"
            `Quick test_metrics_merge_parallel;
        ] );
      ( "jsonb",
        [
          Alcotest.test_case "parser round trips" `Quick test_jsonb_roundtrip;
          Alcotest.test_case "parser rejects malformed input" `Quick
            test_jsonb_errors;
        ] );
    ]
