(* Property: the paper's graph-theoretic decision algorithm
   ([Classify.classify], Theorems 2–4) agrees with the semantic
   cross-check re-derived from first principles — build the Theorem-2
   witness run, then locate it in the limit-set hierarchy
   X_sync ⊆ X_co ⊆ X_async ([Limits.classify]):

     no witness (cyclic)        ⟺ B unsatisfiable  ⟺ tagless suffices
     witness ∈ X_sync           ⟺ not implementable
     witness ∈ X_co − X_sync    ⟹ semantic says general
     witness ∈ X_async − X_co   ⟹ semantic says tagged

   Over abstract posets the semantic answer is coarser on the
   tagged/general boundary (see Witness's module comment), never finer:
   the graph algorithm may answer Tagged where the semantics answers
   General, and they agree exactly on implementability and on Tagless.
   This extends the hand-picked catalog checks of test_classify.ml /
   test_witness.ml to random predicates under the in-repo harness. *)

open Mo_core

let gen_pred rng =
  match Prop.int_range 0 2 rng with
  | 0 -> Mo_workload.Random_pred.predicate ~seed:(Prop.int_range 0 1_000_000 rng) ()
  | 1 ->
      Mo_workload.Random_pred.predicate ~max_vars:8 ~max_conjuncts:14
        ~seed:(Prop.int_range 0 1_000_000 rng)
        ()
  | _ ->
      Mo_workload.Random_pred.cyclic_predicate
        ~nvars:(Prop.int_range 2 7 rng)
        ~seed:(Prop.int_range 0 1_000_000 rng)

let semantic_verdict p =
  match Witness.build p with
  | Witness.Cyclic | Witness.Conflicting_guards ->
      Classify.Implementable Classify.Tagless
  | Witness.Witness w -> (
      (* the witness must actually satisfy B — otherwise it certifies
         nothing *)
      if not (Eval.check_assignment p w.Witness.run w.Witness.assignment) then
        raise
          (Prop.Failed
             ("witness does not satisfy B: " ^ Forbidden.to_string p));
      match Mo_order.Limits.classify w.Witness.run with
      | Mo_order.Limits.Sync -> Classify.Not_implementable
      | Mo_order.Limits.Causal_only -> Classify.Implementable Classify.General
      | Mo_order.Limits.Async_only -> Classify.Implementable Classify.Tagged)

let agree p =
  let graph = (Classify.classify p).Classify.verdict in
  let semantic = semantic_verdict p in
  (* the semantic path above must match the packaged classifier … *)
  if semantic <> Witness.classify p then
    raise
      (Prop.Failed
         ("derived semantic verdict disagrees with Witness.classify: "
         ^ Forbidden.to_string p));
  (* … and relate to the graph algorithm exactly as the theory says *)
  match (graph, semantic) with
  | Classify.Not_implementable, Classify.Not_implementable -> true
  | Classify.Not_implementable, _ | _, Classify.Not_implementable -> false
  | Classify.Implementable g, Classify.Implementable s -> (
      match (g, s) with
      | Classify.Tagless, Classify.Tagless -> true
      | Classify.Tagless, _ | _, Classify.Tagless -> false
      | Classify.Tagged, (Classify.Tagged | Classify.General) -> true
      | Classify.General, Classify.General -> true
      | Classify.General, Classify.Tagged -> false)

let pp p =
  Printf.sprintf "%s [graph %s, semantic %s]"
    (Forbidden.to_string p)
    (Classify.verdict_to_string (Classify.classify p).Classify.verdict)
    (Classify.verdict_to_string (semantic_verdict p))

(* ---- the DP and the event-graph verdict against the enumerator ---- *)

(* svc-cold-style multi-cycle shapes: a union of 5 random Hamiltonian
   cycles over 8 or 9 variables, random endpoints on every conjunct *)
let gen_multi_cycle rng =
  let nvars = Prop.int_range 8 9 rng in
  let one_cycle () =
    let perm = Array.init nvars Fun.id in
    for i = nvars - 1 downto 1 do
      let j = Prop.int_range 0 i rng in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    List.init nvars (fun i ->
        let pt v = if Random.State.bool rng then Term.s v else Term.r v in
        Term.(pt perm.(i) @> pt perm.((i + 1) mod nvars)))
  in
  Forbidden.make ~nvars (List.concat (List.init 5 (fun _ -> one_cycle ())))

let gen_differential rng =
  let seed = Prop.int_range 0 1_000_000 rng in
  match Prop.int_range 0 4 rng with
  | 0 -> Mo_workload.Random_pred.predicate ~seed ()
  | 1 -> Mo_workload.Random_pred.guarded_predicate ~seed ()
  | 2 ->
      Mo_workload.Random_pred.predicate ~max_vars:8 ~max_conjuncts:16 ~seed ()
  | 3 ->
      Mo_workload.Random_pred.cyclic_predicate
        ~nvars:(Prop.int_range 2 9 rng) ~seed
  | _ -> gen_multi_cycle rng

let edge_ids c = List.map (fun (e : Pgraph.edge) -> e.Pgraph.id) c

(* Wherever the enumerator lists every cycle, [Cycles.orders] gives its
   sorted, deduplicated orders and the first least-order cycle of a
   stable sort, [least_order_capped] gives the least order capped at 2,
   and [classify] reports exactly these. *)
let matches_enumerator p =
  match Forbidden.simplify p with
  | Forbidden.Unsatisfiable -> true
  | Forbidden.Simplified q ->
      let g = Pgraph.of_predicate q in
      let cap = 100_000 in
      let cycles = Cycles.enumerate ~max_cycles:cap g in
      List.length cycles >= cap
      ||
      let with_orders = List.map (fun c -> (Beta.order c, c)) cycles in
      let orders = List.sort_uniq Int.compare (List.map fst with_orders) in
      let first =
        match
          List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) with_orders
        with
        | (_, c) :: _ -> Some (edge_ids c)
        | [] -> None
      in
      let dp = Cycles.orders g in
      let r = Classify.classify p in
      let expected_verdict =
        match orders with
        | [] -> Classify.Not_implementable
        | 0 :: _ -> Classify.Implementable Classify.Tagless
        | 1 :: _ -> Classify.Implementable Classify.Tagged
        | _ -> Classify.Implementable Classify.General
      in
      (not dp.Cycles.truncated)
      && dp.Cycles.orders = orders
      && Option.map edge_ids dp.Cycles.best = first
      && Cycles.least_order_capped g
         = (match orders with [] -> None | m :: _ -> Some (min m 2))
      && r.Classify.verdict = expected_verdict
      && r.Classify.orders = orders
      && (not r.Classify.orders_truncated)
      && Option.map edge_ids r.Classify.best_cycle = first

let pp_differential p =
  let r = Classify.classify p in
  Printf.sprintf "%s [classify %s, orders %s]" (Forbidden.to_string p)
    (Classify.verdict_to_string r.Classify.verdict)
    (String.concat "," (List.map string_of_int r.Classify.orders))

(* Components {x0, x5} and {x2, x3}: root x2 is searched while x5, above
   the earlier root x0, still belongs to an unfinished component. The
   search from x2 must not mistake x5 for x3 (same in-component rank,
   same entry endpoint), or the order-1 cycle x2 -> x3 -> x2 is lost. *)
let interleaved_components =
  Term.(
    Forbidden.make ~nvars:6
      [ s 0 @> r 5; s 5 @> r 0; s 2 @> s 5; s 2 @> s 3; s 3 @> r 2 ])

let test_catalog_differential () =
  List.iter
    (fun (name, p) ->
      Alcotest.(check bool) name true (matches_enumerator p))
    (("interleaved components", interleaved_components)
    :: List.map (fun (e : Catalog.entry) -> (e.Catalog.name, e.Catalog.pred))
         Catalog.all)

let () =
  Alcotest.run "prop_classify"
    [
      ( "agreement",
        [
          Alcotest.test_case "graph vs semantic, random predicates" `Quick
            (Prop.test ~count:500 ~seed:42
               ~name:"graph vs semantic classification" gen_pred ~pp agree);
          Alcotest.test_case "deterministic across runs" `Quick (fun () ->
              (* same seed, same verdicts: the whole pipeline is pure *)
              let v seed =
                List.map
                  (fun i ->
                    let rng = Prop.case_rng ~seed i in
                    (Classify.classify (gen_pred rng)).Classify.verdict)
                  (List.init 50 Fun.id)
              in
              Alcotest.(check bool) "stable" true (v 7 = v 7));
        ] );
      ( "oracle",
        [
          Alcotest.test_case "catalog = enumerator" `Quick
            test_catalog_differential;
          Alcotest.test_case "random shapes = enumerator" `Quick
            (Prop.test ~count:2000 ~seed:16
               ~name:"orders, certificate and verdict = enumerator"
               gen_differential ~pp:pp_differential matches_enumerator);
        ] );
    ]
