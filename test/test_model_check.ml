(* Experiment T2 as a test suite: verify the classification theorems
   against EVERY small concrete run (the realizable semantics), not just
   samples. See DESIGN.md experiment index. *)

open Mo_core
open Mo_order

let check_bool = Alcotest.(check bool)

(* all concrete runs with up to 3 messages over 2-3 processes, abstracted *)
let universe =
  lazy
    (Enumerate.abstract_runs ~nprocs:2 ~nmsgs:2 ()
    @ Enumerate.abstract_runs ~nprocs:3 ~nmsgs:2 ()
    @ Enumerate.abstract_runs ~nprocs:2 ~nmsgs:3 ()
    @ Enumerate.abstract_runs ~nprocs:3 ~nmsgs:3 ())

let filter_cls cls =
  List.filter (fun r -> Limits.classify r = cls) (Lazy.force universe)

let sync_runs = lazy (filter_cls Limits.Sync)
let causal_runs =
  lazy
    (List.filter (fun r -> Limits.is_causal r) (Lazy.force universe))
let causal_only_runs = lazy (filter_cls Limits.Causal_only)
let async_only_runs = lazy (filter_cls Limits.Async_only)

let test_universe_sane () =
  check_bool "has sync runs" true (Lazy.force sync_runs <> []);
  check_bool "has causal-only runs" true (Lazy.force causal_only_runs <> []);
  check_bool "has async-only runs" true (Lazy.force async_only_runs <> [])

(* Sufficiency direction of Theorem 3, checked exhaustively:
   - class Tagless: B holds in no run at all (X_B is everything);
   - class Tagged: every causally ordered run satisfies the spec;
   - class General: every logically synchronous run satisfies the spec. *)
let sufficiency_of (e : Catalog.entry) () =
  match e.expected with
  | Classify.Implementable Classify.Tagless ->
      List.iter
        (fun r -> check_bool e.name true (Eval.satisfies e.pred r))
        (Lazy.force universe)
  | Classify.Implementable Classify.Tagged ->
      List.iter
        (fun r -> check_bool e.name true (Eval.satisfies e.pred r))
        (Lazy.force causal_runs)
  | Classify.Implementable Classify.General ->
      List.iter
        (fun r -> check_bool e.name true (Eval.satisfies e.pred r))
        (Lazy.force sync_runs)
  | Classify.Not_implementable ->
      (* no protocol class has a sufficiency claim; the necessity witness
         (a sync run violating the spec) is checked separately *)
      ()

let small_entries =
  List.filter
    (fun (e : Catalog.entry) -> Forbidden.nvars e.pred <= 3)
    Catalog.all

(* Necessity direction of Theorem 4 for the canonical unguarded entries: a
   run in the next-weaker limit set violating the spec exists. *)
let test_tagged_necessity () =
  (* causal-b2 classified Tagged: some async-only run violates it, so no
     tagless protocol can implement it *)
  check_bool "causal violated by an async-only run" true
    (List.exists
       (fun r -> not (Eval.satisfies Catalog.causal_b2.Catalog.pred r))
       (Lazy.force async_only_runs))

let test_general_necessity () =
  (* crown-2 classified General: some causally ordered run violates it, so
     no tagged protocol can implement it (Theorem 4.2) *)
  check_bool "crown violated by a causal run" true
    (List.exists
       (fun r ->
         not (Eval.satisfies (Catalog.sync_crown 2).Catalog.pred r))
       (Lazy.force causal_only_runs))

let test_not_implementable_witness () =
  (* second-before-first: even a logically synchronous run violates it *)
  check_bool "violated by a sync run" true
    (List.exists
       (fun r ->
         not (Eval.satisfies Catalog.second_before_first.Catalog.pred r))
       (Lazy.force sync_runs))

(* Lemma 3.2: the three causal forms carve out the SAME specification over
   realizable runs. *)
let test_lemma_3_2_equivalence () =
  List.iter
    (fun r ->
      let s1 = Eval.satisfies Catalog.causal_b1.Catalog.pred r
      and s2 = Eval.satisfies Catalog.causal_b2.Catalog.pred r
      and s3 = Eval.satisfies Catalog.causal_b3.Catalog.pred r in
      check_bool "B1 = B2" true (s1 = s2);
      check_bool "B2 = B3" true (s2 = s3))
    (Lazy.force universe)

(* Lemma 3.2 again: X_B2 over realizable runs is exactly the causal runs *)
let test_causal_spec_is_causal_set () =
  List.iter
    (fun r ->
      check_bool "X_B2 = X_co" true
        (Eval.satisfies Catalog.causal_b2.Catalog.pred r = Limits.is_causal r))
    (Lazy.force universe)

(* Lemma 3.3: every async form is unsatisfiable over realizable runs *)
let test_lemma_3_3 () =
  List.iter
    (fun (e : Catalog.entry) ->
      List.iter
        (fun r -> check_bool e.name true (Eval.satisfies e.pred r))
        (Lazy.force universe))
    Catalog.async_forms

(* Modelcheck.verify prunes a decided subtree only when Forbidden.simplify
   proves every async form unsatisfiable. It proves none of them (simplify
   only catches single-variable contradictions), so verify walks every
   canonical leaf. If a stronger simplify ever turns that prune on, this
   fails, and the sym-vs-concrete differential of test_sym.ml is due a
   deliberate re-check. *)
let test_async_forms_not_static () =
  Alcotest.(check int) "six async forms" 6 (List.length Catalog.async_forms);
  List.iter
    (fun (e : Catalog.entry) ->
      check_bool e.name true
        (match Forbidden.simplify e.pred with
        | Forbidden.Simplified _ -> true
        | Forbidden.Unsatisfiable -> false))
    Catalog.async_forms

(* Lemma 3.1 for k = 2: violating the crown is exactly failing SYNC, over
   runs with 2 messages; with 3 messages a longer crown can also break
   SYNC, so containment (not equality) is the claim there. *)
let test_crown2_exactness_on_pairs () =
  List.iter
    (fun r ->
      if Run.Abstract.nmsgs r = 2 then
        check_bool "crown-2 ⟺ sync on 2-message runs" true
          (Eval.satisfies (Catalog.sync_crown 2).Catalog.pred r
          = Limits.is_sync r))
    (Lazy.force universe)

let test_crown_family_contains_sync () =
  (* every sync run satisfies all crowns (already covered by sufficiency)
     and every non-sync enumerated run violates SOME crown of length ≤ 3 *)
  List.iter
    (fun r ->
      if not (Limits.is_sync r) then
        check_bool "some crown matches" true
          (List.exists
             (fun k ->
               k <= Run.Abstract.nmsgs r
               && not (Eval.satisfies (Catalog.sync_crown k).Catalog.pred r))
             [ 2; 3 ]))
    (Lazy.force universe)

(* guarded specs: recolor enumerated overtaking runs *)
let test_forward_flush_guarded () =
  (* sufficiency on causal runs holds for every coloring because the
     underlying unguarded predicate is already causal; spot-check the
     violating run exists when the second message is red *)
  let red_overtake =
    match
      Run.of_sequences ~nprocs:2
        ~msgs:[| (0, 1); (0, 1) |]
        ~colors:[| None; Some 1 |]
        [|
          [ Event.send 0; Event.send 1 ];
          [ Event.deliver 1; Event.deliver 0 ];
        |]
    with
    | Ok r -> Run.to_abstract r
    | Error e -> Alcotest.fail e
  in
  check_bool "red marker overtaken is a violation" false
    (Eval.satisfies Catalog.global_forward_flush.Catalog.pred red_overtake);
  check_bool "local flush violated too (same channel)" false
    (Eval.satisfies Catalog.local_forward_flush.Catalog.pred red_overtake)

let test_handoff_guarded () =
  (* a crossing crown with the handoff-colored message straddled by
     another: causal but violating -> control messages needed *)
  let straddle =
    match
      Run.of_sequences ~nprocs:2
        ~msgs:[| (0, 1); (1, 0) |]
        ~colors:[| None; Some 7 |]
        [|
          [ Event.send 0; Event.deliver 1 ];
          [ Event.send 1; Event.deliver 0 ];
        |]
    with
    | Ok r -> Run.to_abstract r
    | Error e -> Alcotest.fail e
  in
  check_bool "straddle is causal" true (Limits.is_causal straddle);
  check_bool "straddle violates handoff" false
    (Eval.satisfies Catalog.mobile_handoff.Catalog.pred straddle);
  (* sync runs always satisfy it (sufficiency over all colorings of the
     enumerated sync runs is implied by the unguarded crown sufficiency) *)
  List.iter
    (fun r ->
      check_bool "sync satisfies handoff" true
        (Eval.satisfies Catalog.mobile_handoff.Catalog.pred r))
    (Lazy.force sync_runs)

let () =
  Alcotest.run "model_check"
    [
      ( "universe",
        [ Alcotest.test_case "universe sane" `Quick test_universe_sane ] );
      ( "sufficiency (Theorem 3)",
        List.map
          (fun (e : Catalog.entry) ->
            Alcotest.test_case e.name `Slow (sufficiency_of e))
          small_entries );
      ( "necessity (Theorem 4)",
        [
          Alcotest.test_case "tagged necessity" `Quick test_tagged_necessity;
          Alcotest.test_case "general necessity" `Quick
            test_general_necessity;
          Alcotest.test_case "not implementable witness" `Quick
            test_not_implementable_witness;
        ] );
      ( "lemma 3",
        [
          Alcotest.test_case "3.2 equivalence" `Slow test_lemma_3_2_equivalence;
          Alcotest.test_case "X_B2 = X_co" `Slow test_causal_spec_is_causal_set;
          Alcotest.test_case "3.3 async forms" `Slow test_lemma_3_3;
          Alcotest.test_case "async forms simplify, verify prunes nothing"
            `Quick test_async_forms_not_static;
          Alcotest.test_case "crown-2 exact on pairs" `Slow
            test_crown2_exactness_on_pairs;
          Alcotest.test_case "crown family covers non-sync" `Slow
            test_crown_family_contains_sync;
        ] );
      ( "guarded",
        [
          Alcotest.test_case "forward flush" `Quick test_forward_flush_guarded;
          Alcotest.test_case "mobile handoff" `Quick test_handoff_guarded;
        ] );
    ]
