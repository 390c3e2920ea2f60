open Mo_core
open Term

let check_bool = Alcotest.(check bool)

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Classify.verdict_to_string v))
    ( = )

let test_catalog_expectations () =
  (* the paper's published classifications, in full — experiment T1/T3 as a
     test *)
  List.iter
    (fun (e : Catalog.entry) ->
      let res = Classify.classify e.pred in
      Alcotest.check verdict e.name e.expected res.verdict)
    Catalog.all

let test_unsatisfiable () =
  let res = Classify.classify (Forbidden.make ~nvars:1 [ r 0 @> s 0 ]) in
  Alcotest.check verdict "contradiction -> tagless"
    (Classify.Implementable Classify.Tagless) res.verdict;
  check_bool "flagged" true (res.simplification = `Unsatisfiable)

let test_empty_predicate () =
  (* B = true forbids everything: not implementable *)
  let res = Classify.classify (Forbidden.make ~nvars:0 []) in
  Alcotest.check verdict "empty" Classify.Not_implementable res.verdict;
  (* a predicate that simplifies to true is likewise not implementable *)
  let r2 = Classify.classify (Forbidden.make ~nvars:1 [ s 0 @> r 0 ]) in
  Alcotest.check verdict "tautology only" Classify.Not_implementable r2.verdict;
  check_bool "dropped tautologies" true (r2.simplification = `Dropped_tautologies)

let test_orders_reported () =
  (* example 1 has a 2-cycle of order 1 and a 4-cycle of order 1 *)
  let res = Classify.classify Catalog.example_1.Catalog.pred in
  Alcotest.(check (list int)) "orders" [ 1 ] res.orders;
  check_bool "certificate present" true (res.best_cycle <> None)

let test_mixed_orders () =
  (* a predicate with both an order-0 cycle and an order-2 crown: the
     order-0 cycle wins (tagless) *)
  let p =
    Forbidden.make ~nvars:4
      [
        s 0 @> s 1;
        s 1 @> s 0;
        (* order-0 two-cycle *)
        s 2 @> r 3;
        s 3 @> r 2 (* order-2 crown *);
      ]
  in
  let res = Classify.classify p in
  Alcotest.check verdict "tagless wins"
    (Classify.Implementable Classify.Tagless) res.verdict;
  Alcotest.(check (list int)) "both orders" [ 0; 2 ] res.orders

let test_necessity_flag () =
  check_bool "unguarded exact" true
    (Classify.classify Catalog.causal_b2.Catalog.pred).necessity_exact;
  check_bool "guarded not exact" false
    (Classify.classify Catalog.fifo.Catalog.pred).necessity_exact

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_explain () =
  let e = Classify.explain Catalog.causal_b2.Catalog.pred in
  check_bool "verdict line" true (contains e "verdict: TAGGED");
  check_bool "cites theorem 3.2" true (contains e "Theorem 3.2");
  check_bool "names beta vertex" true (contains e "beta vertices");
  let e2 = Classify.explain Catalog.second_before_first.Catalog.pred in
  check_bool "not implementable" true (contains e2 "NOT IMPLEMENTABLE");
  check_bool "cites theorem 2" true (contains e2 "Theorem 2");
  let e3 = Classify.explain (Forbidden.make ~nvars:1 [ r 0 @> s 0 ]) in
  check_bool "unsat tagless" true (contains e3 "verdict: TAGLESS");
  let e4 = Classify.explain (Catalog.sync_crown 3).Catalog.pred in
  check_bool "general cites 4.2" true (contains e4 "Theorem 4.2");
  let e5 = Classify.explain Catalog.example_1.Catalog.pred in
  check_bool "contraction shown" true (contains e5 "Lemma 4 contracts");
  let e6 = Classify.explain Catalog.fifo.Catalog.pred in
  check_bool "guard caveat" true (contains e6 "guards present")

(* every xi.s ▷ xj.r over 9 variables has more than 100,000 simple
   cycles through x0 alone; one order-0 two-cycle makes B unsatisfiable.
   A cycle listing that stops at a cap misses the order-0 cycle. *)
let dense_complete n =
  List.concat
    (List.init n (fun i ->
         List.filter_map
           (fun j -> if i = j then None else Some (s i @> r j))
           (List.init n Fun.id)))

let test_dense_tagless () =
  let p =
    Forbidden.make ~nvars:9 (dense_complete 9 @ [ r 0 @> r 1; r 1 @> r 0 ])
  in
  let res = Classify.classify p in
  Alcotest.check verdict "tagless" (Classify.Implementable Classify.Tagless)
    res.verdict;
  Alcotest.(check (list int)) "orders" (List.init 10 Fun.id) res.orders;
  check_bool "exact" false res.orders_truncated;
  Alcotest.(check (option string))
    "certificate" (Some "x0.r < x1.r ; x1.r < x0.r")
    (Option.map (Format.asprintf "%a" Cycles.pp_cycle) res.best_cycle)

(* past the step budget the order set is marked truncated and no
   certificate is given; the verdict still comes from the event graph *)
let test_truncated () =
  let p = Forbidden.make ~nvars:24 (dense_complete 24) in
  let res = Classify.classify p in
  check_bool "truncated" true res.orders_truncated;
  check_bool "no certificate" true (res.best_cycle = None);
  Alcotest.check verdict "general" (Classify.Implementable Classify.General)
    res.verdict;
  Alcotest.(check (option int))
    "polynomial verdict" (Some 2)
    (Cycles.least_order_capped (Pgraph.of_predicate p));
  check_bool "pp says truncated" true
    (contains (Format.asprintf "%a" Classify.pp_result res) "truncated");
  check_bool "explain says truncated" true
    (contains (Classify.explain ~result:res p) "too many cycles");
  let payload =
    Mo_obs.Jsonb.to_string (Mo_service.Codec.classify_payload p)
  in
  check_bool "payload flags it" true
    (contains payload "\"orders_truncated\":true");
  check_bool "exact payloads carry no flag" false
    (contains
       (Mo_obs.Jsonb.to_string
          (Mo_service.Codec.classify_payload Catalog.causal_b2.Catalog.pred))
       "orders_truncated")

let test_class_order () =
  check_bool "tagless <= tagged" true
    (Classify.class_leq Classify.Tagless Classify.Tagged);
  check_bool "tagged <= general" true
    (Classify.class_leq Classify.Tagged Classify.General);
  check_bool "general <= tagged is false" false
    (Classify.class_leq Classify.General Classify.Tagged)

(* The verdict is determined by the minimal cycle order: recompute it
   directly and compare, over random predicates. *)
let prop_verdict_matches_min_order =
  QCheck.Test.make ~name:"verdict = f(min cycle order)" ~count:300
    QCheck.(int_bound 10_000)
    (fun seed ->
      let p = Mo_workload.Random_pred.predicate ~seed () in
      let res = Classify.classify p in
      match Forbidden.simplify p with
      | Forbidden.Unsatisfiable ->
          res.Classify.verdict = Classify.Implementable Classify.Tagless
      | Forbidden.Simplified q ->
          let orders =
            List.map Beta.order (Cycles.enumerate (Pgraph.of_predicate q))
          in
          let expected =
            match List.sort Int.compare orders with
            | [] -> Classify.Not_implementable
            | 0 :: _ -> Classify.Implementable Classify.Tagless
            | 1 :: _ -> Classify.Implementable Classify.Tagged
            | _ -> Classify.Implementable Classify.General
          in
          res.Classify.verdict = expected)

(* Implementability agrees with the witness-based semantic test (Theorem 2
   in both directions). *)
let prop_implementability_semantic =
  QCheck.Test.make ~name:"implementable ⟺ witness not in X_sync" ~count:300
    QCheck.(int_bound 10_000)
    (fun seed ->
      let p = Mo_workload.Random_pred.predicate ~seed () in
      let graph_verdict = (Classify.classify p).Classify.verdict in
      let semantic = Witness.classify p in
      (graph_verdict = Classify.Not_implementable)
      = (semantic = Classify.Not_implementable))

(* Tagless boundary agrees with semantics: X_B = X_async iff B is
   unsatisfiable iff no witness run exists. *)
let prop_tagless_semantic =
  QCheck.Test.make ~name:"tagless ⟺ predicate unsatisfiable" ~count:300
    QCheck.(int_bound 10_000)
    (fun seed ->
      let p = Mo_workload.Random_pred.predicate ~seed () in
      let graph_tagless =
        (Classify.classify p).Classify.verdict
        = Classify.Implementable Classify.Tagless
      in
      let unsat =
        match Witness.build p with
        | Witness.Cyclic | Witness.Conflicting_guards -> true
        | Witness.Witness _ -> false
      in
      graph_tagless = unsat)

(* Cyclic random predicates through all vertices exercise each branch:
   their verdict must be Implementable. *)
let prop_cyclic_always_implementable =
  QCheck.Test.make ~name:"cyclic predicates implementable" ~count:200
    QCheck.(pair (int_range 2 7) (int_bound 10_000))
    (fun (nvars, seed) ->
      let p = Mo_workload.Random_pred.cyclic_predicate ~nvars ~seed in
      (Classify.classify p).Classify.verdict <> Classify.Not_implementable)

let () =
  Alcotest.run "classify"
    [
      ( "unit",
        [
          Alcotest.test_case "catalog table (T1/T3)" `Quick
            test_catalog_expectations;
          Alcotest.test_case "unsatisfiable" `Quick test_unsatisfiable;
          Alcotest.test_case "empty predicate" `Quick test_empty_predicate;
          Alcotest.test_case "orders reported" `Quick test_orders_reported;
          Alcotest.test_case "mixed orders" `Quick test_mixed_orders;
          Alcotest.test_case "necessity flag" `Quick test_necessity_flag;
          Alcotest.test_case "explain" `Quick test_explain;
          Alcotest.test_case "class order" `Quick test_class_order;
          Alcotest.test_case "dense 9-variable predicate" `Quick
            test_dense_tagless;
          Alcotest.test_case "truncated order set" `Quick test_truncated;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_verdict_matches_min_order;
            prop_implementability_semantic;
            prop_tagless_semantic;
            prop_cyclic_always_implementable;
          ] );
    ]
