(* Differential tests for the PR-5 kernel: the incremental backtracking
   enumerator, the mask/bitset compiled evaluator, and the fast limit
   checks must be indistinguishable from their reference counterparts.

   - enumerator: [Enumerate.runs] emits the same run SET as the
     materialized [Enumerate.runs_ref] (different order is allowed and
     expected), [count_runs] counts it, and the abstract fast path
     ([fold_abstracts], packed masks + lazy poset) yields runs equal to
     the [to_abstract] projections — [Run.Abstract.equal] forces the
     mask-reconstructed poset against the concrete one — and every
     leaf's packed masks equal the poset path's, through (4,3).
   - limits: [is_sync]/[is_causal] equal their witness-producing
     references on every B12-tier run and on random runs of up to 62
     messages.
   - evaluator: on ≥ 500 random guarded predicates, [find_matches]
     (compiled, lex plan) is byte-for-byte the reference interpreter's
     match list, and [holds] (compiled, reordered plan) agrees as a
     boolean — over mask-backed abstract runs of every standard size —
     as does the monitor's [Eval.Masked] entry point fed the same rows.
   - large runs: with > 62 messages the packed masks are unavailable and
     everything must fall back to the Bitset/poset paths; the arms must
     still agree.
   - model checker: the B12-tier universe counts are pinned; these are
     the numbers the paper's tables and BENCH_core.json carry. *)

open Mo_core
open Mo_order

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- enumerator vs reference ------------------------------------- *)

let run_key r = Format.asprintf "%a" Run.pp r

let standard_sizes = Modelcheck.standard_sizes

let test_run_sets () =
  List.iter
    (fun (nprocs, nmsgs) ->
      List.iter
        (fun msgs ->
          let fast = Enumerate.runs ~nprocs ~msgs
          and slow = Enumerate.runs_ref ~nprocs ~msgs in
          check_int "count_runs" (List.length slow)
            (Enumerate.count_runs ~nprocs ~msgs);
          let keys l = List.sort compare (List.map run_key l) in
          Alcotest.(check (list string))
            "same run set" (keys slow) (keys fast))
        (Enumerate.configs ~nprocs ~nmsgs ()))
    standard_sizes

let test_abstract_fast_path () =
  List.iter
    (fun (nprocs, nmsgs) ->
      List.iter
        (fun msgs ->
          (* same enumeration order on both sides, so compare pairwise;
             equality forces the lazy poset rebuilt from the packed masks
             against the concrete run's own closure *)
          let concrete =
            List.map Run.to_abstract (Enumerate.runs ~nprocs ~msgs)
          in
          let fast =
            List.rev
              (Enumerate.fold_abstracts ~nprocs ~msgs ~init:[]
                 ~f:(fun acc r -> r :: acc))
          in
          check_int "same cardinality" (List.length concrete)
            (List.length fast);
          List.iter2
            (fun a b ->
              check_bool "abstract runs equal" true (Run.Abstract.equal a b);
              (* and the limit verdicts agree between mask and poset
                 representations *)
              check_bool "is_causal agrees" (Limits.is_causal a)
                (Limits.is_causal b);
              check_bool "is_sync agrees" (Limits.is_sync a)
                (Limits.is_sync b))
            concrete fast)
        (Enumerate.configs ~nprocs ~nmsgs ()))
    (* (3,3) adds minutes of pairwise poset comparisons for no new code
       path; the smaller sizes already cross every representation *)
    [ (2, 2); (3, 2); (2, 3) ]

(* every kernel leaf de-interleaves to the packed rows the poset path
   builds for the same run: both sides enumerate in the same order, so
   pairwise, and as int arrays only — no poset is forced on the leaf
   side, which keeps (4,3) cheap *)
let test_leaf_masks () =
  List.iter
    (fun (nprocs, nmsgs) ->
      List.iter
        (fun msgs ->
          let from_posets =
            List.map
              (fun r -> Run.Abstract.masks (Run.to_abstract r))
              (Enumerate.runs ~nprocs ~msgs)
          in
          let from_leaves =
            List.rev
              (Enumerate.fold_abstracts ~nprocs ~msgs ~init:[]
                 ~f:(fun acc a -> Run.Abstract.masks a :: acc))
          in
          check_int "same cardinality" (List.length from_posets)
            (List.length from_leaves);
          if from_posets <> from_leaves then
            Alcotest.failf "leaf masks differ at (%d,%d), config %s" nprocs
              nmsgs
              (String.concat " "
                 (Array.to_list
                    (Array.map
                       (fun (s, d) -> Printf.sprintf "%d>%d" s d)
                       msgs))))
        (Enumerate.configs ~nprocs ~nmsgs ()))
    (standard_sizes @ [ (4, 3) ])

(* ---- fast limit checks vs their witness references ---------------- *)

let limits_agree r =
  Limits.is_sync r = Result.is_ok (Limits.check_sync r)
  && Limits.is_causal r = Result.is_ok (Limits.check_causal r)

(* every run of the B12 tier, on the packed-mask path (the references
   force the poset rebuilt from the same masks) *)
let test_limits_universe () =
  let runs = ref 0 and sync = ref 0 and causal = ref 0 in
  List.iter
    (fun (nprocs, nmsgs) ->
      List.iter
        (fun msgs ->
          Enumerate.fold_abstracts ~nprocs ~msgs ~init:() ~f:(fun () r ->
              if not (limits_agree r) then
                Alcotest.failf "limit checks disagree at (%d,%d)" nprocs
                  nmsgs;
              incr runs;
              if Limits.is_sync r then incr sync;
              if Limits.is_causal r then incr causal))
        (Enumerate.configs ~nprocs ~nmsgs ()))
    Modelcheck.universe_sizes;
  check_int "runs" 125_768 !runs;
  check_int "causal" 63_364 !causal;
  check_int "sync" 41_432 !sync

(* random runs up to the 62-message mask capacity, drawn unconstrained,
   causal and serialized so both verdicts of both checks occur *)
let test_limits_random =
  Prop.test ~count:300 ~seed:7 ~name:"limit checks = witnesses, random runs"
    (fun rng ->
      let nprocs = Prop.int_range 2 6 rng
      and nmsgs = Prop.int_range 2 62 rng
      and seed = Prop.int_range 0 1_000_000 rng in
      let gen =
        Prop.oneof
          [
            (fun () -> Mo_workload.Random_run.run ~nprocs ~nmsgs ~seed ());
            (fun () ->
              Mo_workload.Random_run.causal_run ~nprocs ~nmsgs ~seed ());
            (fun () ->
              Mo_workload.Random_run.serialized_run ~nprocs ~nmsgs ~seed ());
          ]
          rng
      in
      Run.to_abstract (gen ()))
    ~pp:(fun r -> Printf.sprintf "a %d-message run" (Run.Abstract.nmsgs r))
    (fun r -> Run.Abstract.masks r <> None && limits_agree r)

(* ---- compiled evaluator vs reference interpreter ------------------ *)

(* one shared pool of mask-backed abstract runs covering every standard
   size; sampled by stride so each case sees a spread, not a prefix *)
let run_pool =
  lazy
    (Array.of_list
       (List.concat_map
          (fun (nprocs, nmsgs) ->
            Enumerate.abstract_runs ~nprocs ~nmsgs ())
          standard_sizes))

let sample_runs rng =
  let pool = Lazy.force run_pool in
  let stride = 17 + Prop.int_range 0 61 rng in
  let start = Prop.int_range 0 (Array.length pool - 1) rng in
  List.init 40 (fun i -> pool.((start + (i * stride)) mod Array.length pool))

let gen_pred rng =
  Prop.frequency
    [
      (* small arities actually place all their variables in 2-3 message
         runs; larger ones exercise the early-exit and pruning paths *)
      ( 3,
        fun rng ->
          Mo_workload.Random_pred.guarded_predicate ~max_vars:3
            ~seed:(Prop.int_range 0 1_000_000 rng)
            () );
      ( 2,
        fun rng ->
          Mo_workload.Random_pred.guarded_predicate
            ~seed:(Prop.int_range 0 1_000_000 rng)
            () );
      ( 1,
        fun rng ->
          Mo_workload.Random_pred.cyclic_predicate
            ~nvars:(Prop.int_range 2 5 rng)
            ~seed:(Prop.int_range 0 1_000_000 rng) );
    ]
    rng

(* the monitor's entry point fed a run's own packed rows: every message
   live, attributes as int columns built from the records. It must agree
   with the run evaluators, and a found assignment must check out. *)
let masked_agrees p c r =
  match Run.Abstract.masks r with
  | None -> false
  | Some masks ->
      let n = Run.Abstract.nmsgs r in
      let live = (1 lsl n) - 1 in
      let col f =
        Array.init n (fun i ->
            Option.value (f (Run.Abstract.attrs r i)) ~default:(-1))
      in
      let src = col (fun a -> a.Run.src)
      and dst = col (fun a -> a.Run.dst)
      and color = col (fun a -> a.Run.color) in
      List.for_all
        (fun distinct ->
          let u = Eval.Masked.make ~distinct c in
          let held = Eval.Masked.holds u ~n ~live ~masks ~src ~dst ~color in
          held = Eval.holds_c ~distinct c r
          && held = Eval.holds_ref ~distinct p r
          &&
          match Eval.Masked.find u ~n ~live ~masks ~src ~dst ~color with
          | None -> not held
          | Some a ->
              held
              && Eval.check_assignment p r a
              && ((not distinct)
                 || List.length (List.sort_uniq compare (Array.to_list a))
                    = Array.length a))
        [ true; false ]

(* a run and two twins with the same order: every attribute unknown (no
   guard may hold), and colored [i mod 3] (the colors random predicates
   test) *)
let with_twins r =
  match Run.Abstract.masks r with
  | None -> [ r ]
  | Some masks ->
      let nmsgs = Run.Abstract.nmsgs r in
      let twin f =
        Run.Abstract.of_masks ~nmsgs
          ~attrs:(Run.attr_table (Array.init nmsgs f))
          masks
      in
      [
        r;
        twin (fun _ -> Run.no_attrs);
        twin (fun i ->
            { (Run.Abstract.attrs r i) with Run.color = Some (i mod 3) });
      ]

let agree_on_pred (p, runs) =
  let c = Eval.compile p in
  List.for_all
    (fun r ->
      masked_agrees p c r
      &&
      (* byte-for-byte: same matches, in the same order *)
      Eval.find_matches_ref p r = Eval.find_matches_c c r
      && Eval.find_match_ref p r = Eval.find_match_c c r
      (* the reordered boolean plan agrees too, as does non-distinct
         matching *)
      && Eval.holds_ref p r = Eval.holds_c c r
      && Eval.holds_ref ~distinct:false p r
         = Eval.holds_c ~distinct:false c r)
    (List.concat_map with_twins runs)

let test_eval_differential =
  Prop.test ~count:500 ~seed:42 ~name:"compiled = reference"
    (Prop.pair gen_pred sample_runs)
    ~pp:(fun (p, _) -> Forbidden.to_string p)
    agree_on_pred

(* ---- the > 62-message fallback ----------------------------------- *)

let big_n = 70

(* a pipelined (totally ordered) big run and one with a single overtaken
   pair; both too wide for packed masks *)
let big_chain =
  lazy
    (let edges =
       List.concat
         (List.init (big_n - 1) (fun x ->
              [ (Event.deliver x, Event.send (x + 1)) ]))
     in
     Run.Abstract.create_exn ~nmsgs:big_n edges)

let big_overtake =
  lazy
    (Run.Abstract.create_exn ~nmsgs:big_n
       [
         (Event.send 0, Event.send 1); (Event.deliver 1, Event.deliver 0);
       ])

(* [core] edges over messages 0 .. k-1 with attributes [attrs], then a
   pipelined tail up to [big_n] messages that hangs below x(k-1)'s
   delivery, each tail message on a channel of its own *)
let padded ~k ~attrs core =
  let tail =
    List.init (big_n - k) (fun i ->
        (Event.deliver (k + i - 1), Event.send (k + i)))
  in
  let attrs =
    Array.init big_n (fun m ->
        if m < k then attrs m
        else Run.attrs_known ~src:(100 + m) ~dst:(200 + m) ())
  in
  Run.Abstract.create_exn ~nmsgs:big_n ~attrs (core @ tail)

(* x1 sent after x0 and delivered before it, x0 at (0, 0 -> d0) and x1
   at (0, 0 -> d1) *)
let overtake_pair ~d1 =
  padded ~k:2
    ~attrs:(fun m ->
      Run.attrs_known ~src:0 ~dst:(if m = 0 then 1 else d1) ())
    [ (Event.send 0, Event.send 1); (Event.deliver 1, Event.deliver 0) ]

let big_channel_overtake = lazy (overtake_pair ~d1:1)
let big_source_overtake = lazy (overtake_pair ~d1:2)

let big_crown2 =
  lazy
    (padded ~k:2
       ~attrs:(fun m -> Run.attrs_known ~src:m ~dst:(1 - m) ())
       [ (Event.send 0, Event.deliver 1); (Event.send 1, Event.deliver 0) ])

(* each xi sent before x(i+1) is delivered: one crown through all 63 *)
let big_ring =
  lazy
    (padded ~k:63
       ~attrs:(fun m -> Run.attrs_known ~src:m ~dst:((m + 62) mod 63) ())
       (List.init 63 (fun i ->
            (Event.send i, Event.deliver ((i + 1) mod 63)))))

let test_big_runs () =
  List.iter
    (fun r ->
      let r = Lazy.force r in
      check_bool "masks unavailable above 62 msgs" true
        (Run.Abstract.masks r = None);
      check_bool "is_causal = check_causal" (Limits.is_causal r)
        (Result.is_ok (Limits.check_causal r));
      check_bool "is_sync = check_sync" (Limits.is_sync r)
        (Result.is_ok (Limits.check_sync r));
      List.iter
        (fun m ->
          check_bool
            ("is_member = check: " ^ Lattice.to_string m)
            (Lattice.is_member m r)
            (Result.is_ok (Lattice.check m r)))
        (Lattice.points ~kmax:3 ());
      List.iter
        (fun k ->
          match Lattice.check (Lattice.Ksync k) r with
          | Ok () -> check_bool "max_scc <= k" true (Lattice.max_scc r <= k)
          | Error v ->
              check_int "max_scc = largest SCC" (List.length v.Lattice.cycle)
                (Lattice.max_scc r))
        [ 2; 3 ];
      List.iter
        (fun (e : Catalog.entry) ->
          check_bool e.Catalog.name
            (Eval.holds_ref e.Catalog.pred r)
            (Eval.holds e.Catalog.pred r))
        [ Catalog.causal_b2; Catalog.sync_crown 2; Catalog.fifo ])
    [
      big_chain;
      big_overtake;
      big_channel_overtake;
      big_source_overtake;
      big_crown2;
      big_ring;
    ];
  check_bool "chain is causal" true (Limits.is_causal (Lazy.force big_chain));
  check_bool "overtake is not causal" false
    (Limits.is_causal (Lazy.force big_overtake));
  let check_members name r want =
    let points = Lattice.points ~kmax:3 () in
    List.filter (fun m -> Lattice.is_member m (Lazy.force r)) points
    |> List.map Lattice.to_string |> String.concat " "
    |> Alcotest.(check string) name want
  in
  check_members "same-channel overtake" big_channel_overtake
    "ksync2 ksync3 async";
  check_members "same-source overtake" big_source_overtake
    "ksync2 ksync3 fifo-n1 fifo-11 async";
  check_members "2-crown" big_crown2
    "ksync2 ksync3 fifo-nn causal fifo-1n fifo-n1 fifo-11 async";
  check_members "63-ring crown" big_ring
    "fifo-nn causal fifo-1n fifo-n1 fifo-11 async";
  check_int "ring SCC" 63 (Lattice.max_scc (Lazy.force big_ring));
  check_int "2-crown SCC" 2 (Lattice.max_scc (Lazy.force big_crown2))

(* ---- pinned model-checker counts (B12 tier) ----------------------- *)

let test_verify_counts () =
  let sizes = standard_sizes @ [ (4, 2); (4, 3); (3, 4) ] in
  let v = Modelcheck.verify ~sizes () in
  check_int "runs" 125_768 v.Modelcheck.counts.Modelcheck.runs;
  check_int "causal" 63_364 v.Modelcheck.counts.Modelcheck.causal;
  check_int "sync" 41_432 v.Modelcheck.counts.Modelcheck.sync;
  check_bool "all lemmas hold" true (Modelcheck.ok v)

let () =
  Alcotest.run "eval_fast"
    [
      ( "enumerator",
        [
          Alcotest.test_case "run set = reference" `Slow test_run_sets;
          Alcotest.test_case "abstract fast path" `Slow
            test_abstract_fast_path;
          Alcotest.test_case "leaf masks = poset masks" `Slow test_leaf_masks;
        ] );
      ( "limits",
        [
          Alcotest.test_case "B12 tier = witness references" `Slow
            test_limits_universe;
          Alcotest.test_case "random runs = witness references" `Quick
            test_limits_random;
        ] );
      ( "evaluator",
        [
          Alcotest.test_case "500 random guarded predicates" `Slow
            test_eval_differential;
          Alcotest.test_case "bitset fallback beyond 62 msgs" `Quick
            test_big_runs;
        ] );
      ( "modelcheck",
        [ Alcotest.test_case "B12-tier counts pinned" `Slow test_verify_counts ] );
    ]
