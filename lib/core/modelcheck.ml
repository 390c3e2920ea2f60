open Mo_order

type counts = { runs : int; causal : int; sync : int }

type verdict = {
  counts : counts;
  subset_chain : bool;
  lemma32_equiv : bool;
  lemma32_exact : bool;
  lemma33_unsat : bool;
}

let ok v =
  v.subset_chain && v.lemma32_equiv && v.lemma32_exact && v.lemma33_unsat

let standard_sizes = [ (2, 2); (3, 2); (2, 3); (3, 3) ]

let deep_sizes = standard_sizes @ [ (4, 2); (4, 3); (3, 4); (4, 4) ]

let universe_sizes = standard_sizes @ [ (4, 2); (4, 3); (3, 4) ]

let vast_sizes = deep_sizes @ [ (5, 2); (5, 3); (5, 4); (4, 5) ]

(* one pass accumulator: counts and the pointwise lemma identities, all
   combined with sums and conjunctions — commutative and associative, so
   the sharded reduction is order-insensitive (and the pool merges in
   enumeration order anyway) *)
type acc = {
  a_runs : int;
  a_causal : int;
  a_sync : int;
  a_sync_sub : bool; (* every sync run is causal *)
  a_equiv : bool; (* B1 = B2 = B3 pointwise *)
  a_exact : bool; (* X_B2 = X_co pointwise *)
  a_unsat : bool; (* every async form holds everywhere *)
}

let acc_init =
  {
    a_runs = 0;
    a_causal = 0;
    a_sync = 0;
    a_sync_sub = true;
    a_equiv = true;
    a_exact = true;
    a_unsat = true;
  }

let acc_merge x y =
  {
    a_runs = x.a_runs + y.a_runs;
    a_causal = x.a_causal + y.a_causal;
    a_sync = x.a_sync + y.a_sync;
    a_sync_sub = x.a_sync_sub && y.a_sync_sub;
    a_equiv = x.a_equiv && y.a_equiv;
    a_exact = x.a_exact && y.a_exact;
    a_unsat = x.a_unsat && y.a_unsat;
  }

(* The lemma predicates, compiled once per process. Eagerly forced so no
   worker domain ever races on a lazy; a compiled plan is immutable and
   safe to share (see Eval). *)
type plans = {
  p_b1 : Eval.compiled;
  p_b2 : Eval.compiled;
  p_b3 : Eval.compiled;
  p_async : Eval.compiled list;
}

let plans =
  lazy
    {
      p_b1 = Eval.compile Catalog.causal_b1.Catalog.pred;
      p_b2 = Eval.compile Catalog.causal_b2.Catalog.pred;
      p_b3 = Eval.compile Catalog.causal_b3.Catalog.pred;
      p_async =
        List.map
          (fun (e : Catalog.entry) -> Eval.compile e.Catalog.pred)
          Catalog.async_forms;
    }

let step_mult plans ~mult acc r =
  let causal = Limits.is_causal r and sync = Limits.is_sync r in
  let s2 = Eval.satisfies_c plans.p_b2 r in
  {
    a_runs = acc.a_runs + mult;
    a_causal = (acc.a_causal + if causal then mult else 0);
    a_sync = (acc.a_sync + if sync then mult else 0);
    a_sync_sub = acc.a_sync_sub && ((not sync) || causal);
    a_equiv =
      acc.a_equiv
      && Eval.satisfies_c plans.p_b1 r = s2
      && Eval.satisfies_c plans.p_b3 r = s2;
    a_exact = acc.a_exact && s2 = causal;
    a_unsat =
      acc.a_unsat
      && List.for_all (fun p -> Eval.satisfies_c p r) plans.p_async;
  }

let step plans acc r = step_mult plans ~mult:1 acc r

let with_pool pool f =
  match pool with
  | Some p -> f p
  | None -> f (Mo_par.Pool.create ())

(* Decided-subtree prune for [verify] (sound because every component of
   [acc] is then constant over the subtree — see DESIGN.md §3j):
   Eval.holds_c is monotone in the closure (conjuncts are positive ▷
   atoms), so once all three B-forms' patterns have matched and both
   limit violations are witnessed, every completion contributes
   runs-only. The async forms must be *statically* unsatisfiable for
   their conjunct to stay true — which is exactly Lemma 3.3's syntactic
   direction, so we check it with Forbidden.simplify rather than assume
   the semantic lemma under verification. Forbidden.simplify only
   catches single-variable contradictions and proves none of the async
   forms unsatisfiable, so this returns [None], and no boundary abstract
   is built for a prune that could not fire. *)
let verify_prune plans =
  let asyncs_unsat =
    List.for_all
      (fun (e : Catalog.entry) ->
        match Forbidden.simplify e.Catalog.pred with
        | Forbidden.Unsatisfiable -> true
        | Forbidden.Simplified _ -> false)
      Catalog.async_forms
  in
  let decided a =
    (not (Limits.is_causal a))
    && (not (Limits.is_sync a))
    && Eval.holds_c plans.p_b2 a
    && Eval.holds_c plans.p_b1 a
    && Eval.holds_c plans.p_b3 a
  in
  let on_pruned acc ~mult ~runs _a =
    { acc with a_runs = acc.a_runs + (mult * runs) }
  in
  if asyncs_unsat then Some (decided, on_pruned) else None

let verify ?pool ?(sym = false) ~sizes () =
  (* force the compiled plans on this domain before any worker shards run *)
  let plans = Lazy.force plans in
  with_pool pool (fun pool ->
      let total =
        if sym then
          List.fold_left
            (fun acc (nprocs, nmsgs) ->
              acc_merge acc
                (Enumerate.fold_abstracts_sym_par ~pool ~nprocs ~nmsgs
                   ?prune:(verify_prune plans) ~init:acc_init
                   ~f:(fun acc ~mult r -> step_mult plans ~mult acc r)
                   ~merge:acc_merge ()))
            acc_init sizes
        else
          List.fold_left
            (fun acc (nprocs, nmsgs) ->
              acc_merge acc
                (Enumerate.fold_abstracts_par ~pool ~nprocs ~nmsgs
                   ~init:acc_init ~f:(step plans) ~merge:acc_merge ()))
            acc_init sizes
      in
      {
        counts =
          { runs = total.a_runs; causal = total.a_causal; sync = total.a_sync };
        subset_chain =
          total.a_sync_sub
          && total.a_sync < total.a_causal
          && total.a_causal < total.a_runs;
        lemma32_equiv = total.a_equiv;
        lemma32_exact = total.a_exact;
        lemma33_unsat = total.a_unsat;
      })

(* ------------------------------------------------------------------ *)
(* Online-vs-offline differential verification.                       *)
(* ------------------------------------------------------------------ *)

type monitor_report = {
  m_runs : int;
  m_violations : (string * int) list;
  m_agree : bool;
}

let monitor_preds =
  [
    ("fifo", Catalog.fifo.Catalog.pred);
    ("causal_b2", Catalog.causal_b2.Catalog.pred);
    ("crown2", (Catalog.sync_crown 2).Catalog.pred);
  ]

type macc = { ma_runs : int; ma_viol : int array; ma_agree : bool }

let verify_monitor ?pool ?(extensions = 3) ?(seed = 0) ?(sample = 1) ~sizes
    () =
  let plans =
    List.map (fun (name, p) -> (name, Eval.compile p)) monitor_preds
  in
  let npreds = List.length plans in
  let step acc (r : Run.t) =
    (* per-run extension seeds derived from the run content, so the
       sample is independent of sharding and job count *)
    let rseed = Hashtbl.hash (seed, Run.linearize r) in
    let monitored = sample <= 1 || rseed mod sample = 0 in
    let viol = Array.copy acc.ma_viol in
    let agree = ref acc.ma_agree in
    List.iteri
      (fun i (_, plan) ->
        let offline = Eval.holds_c plan (Run.to_abstract r) in
        if offline then viol.(i) <- viol.(i) + 1;
        if monitored then
          for e = 0 to extensions - 1 do
            let events =
              Run.linearize_random r ~seed:(Hashtbl.hash (rseed, e))
            in
            let online = Pmon.feed_events (Pmon.exact plan r) r events in
            if Option.is_some online <> offline then agree := false
          done)
      plans;
    { ma_runs = acc.ma_runs + 1; ma_viol = viol; ma_agree = !agree }
  in
  let merge x y =
    {
      ma_runs = x.ma_runs + y.ma_runs;
      ma_viol = Array.init npreds (fun i -> x.ma_viol.(i) + y.ma_viol.(i));
      ma_agree = x.ma_agree && y.ma_agree;
    }
  in
  let init = { ma_runs = 0; ma_viol = Array.make npreds 0; ma_agree = true } in
  with_pool pool (fun pool ->
      let total =
        List.fold_left
          (fun acc (nprocs, nmsgs) ->
            merge acc
              (Enumerate.fold_runs_par ~pool ~nprocs ~nmsgs ~init ~f:step
                 ~merge ()))
          init sizes
      in
      {
        m_runs = total.ma_runs;
        m_violations =
          List.mapi (fun i (name, _) -> (name, total.ma_viol.(i))) plans;
        m_agree = total.ma_agree;
      })

let count ?pool ?(sym = false) ~sizes () =
  let cstep ~mult acc r =
    {
      runs = acc.runs + mult;
      causal = (acc.causal + if Limits.is_causal r then mult else 0);
      sync = (acc.sync + if Limits.is_sync r then mult else 0);
    }
  in
  let cmerge x y =
    {
      runs = x.runs + y.runs;
      causal = x.causal + y.causal;
      sync = x.sync + y.sync;
    }
  in
  let czero = { runs = 0; causal = 0; sync = 0 } in
  (* both limit violations are monotone in the closure: a subtree where
     causality and synchrony are already broken only contributes runs *)
  let cprune =
    ( (fun a -> (not (Limits.is_causal a)) && not (Limits.is_sync a)),
      fun acc ~mult ~runs _a -> { acc with runs = acc.runs + (mult * runs) } )
  in
  with_pool pool (fun pool ->
      List.fold_left
        (fun acc (nprocs, nmsgs) ->
          let c =
            if sym then
              Enumerate.fold_abstracts_sym_par ~pool ~nprocs ~nmsgs
                ~prune:cprune ~init:czero
                ~f:(fun acc ~mult r -> cstep ~mult acc r)
                ~merge:cmerge ()
            else
              Enumerate.fold_abstracts_par ~pool ~nprocs ~nmsgs ~init:czero
                ~f:(fun acc r -> cstep ~mult:1 acc r)
                ~merge:cmerge ()
          in
          cmerge acc c)
        czero sizes)

(* ------------------------------------------------------------------ *)
(* Placement against the communication-model lattice.                  *)
(* ------------------------------------------------------------------ *)

type place = {
  pl_model : Lattice.model;
  pl_members : int;
  pl_inter : int;
  pl_model_in_spec : bool;
  pl_spec_in_model : bool;
}

type placement = {
  p_runs : int;
  p_spec : int;
  p_places : place list;
  p_sufficient : Lattice.model list;
  p_guarantees : Lattice.model list;
}

type pacc = {
  pa_runs : int;
  pa_spec : int;
  pa_members : int array;
  pa_inter : int array;
  pa_cont : bool array; (* X_M ⊆ X_B so far *)
  pa_contby : bool array; (* X_B ⊆ X_M so far *)
}

let placement ?pool ?(kmax = 3) ?(sym = false) ~sizes pred =
  let models = Array.of_list (Lattice.points ~kmax ()) in
  let nm = Array.length models in
  (* compiled before the worker shards run, as [verify] *)
  let plan = Eval.compile pred in
  let init =
    {
      pa_runs = 0;
      pa_spec = 0;
      pa_members = Array.make nm 0;
      pa_inter = Array.make nm 0;
      pa_cont = Array.make nm true;
      pa_contby = Array.make nm true;
    }
  in
  (* per-run copies keep the shard accumulators disjoint, as the
     monitor pass; everything reduces by sums and conjunctions, so the
     verdict is identical at every job count *)
  let step ~mult acc r =
    let sat = Eval.satisfies_c plan r in
    let members = Array.copy acc.pa_members
    and inter = Array.copy acc.pa_inter
    and cont = Array.copy acc.pa_cont
    and contby = Array.copy acc.pa_contby in
    for i = 0 to nm - 1 do
      let m = Lattice.is_member models.(i) r in
      if m then begin
        members.(i) <- members.(i) + mult;
        if sat then inter.(i) <- inter.(i) + mult else cont.(i) <- false
      end
      else if sat then contby.(i) <- false
    done;
    {
      pa_runs = acc.pa_runs + mult;
      pa_spec = (acc.pa_spec + if sat then mult else 0);
      pa_members = members;
      pa_inter = inter;
      pa_cont = cont;
      pa_contby = contby;
    }
  in
  let merge x y =
    {
      pa_runs = x.pa_runs + y.pa_runs;
      pa_spec = x.pa_spec + y.pa_spec;
      pa_members =
        Array.init nm (fun i -> x.pa_members.(i) + y.pa_members.(i));
      pa_inter = Array.init nm (fun i -> x.pa_inter.(i) + y.pa_inter.(i));
      pa_cont = Array.init nm (fun i -> x.pa_cont.(i) && y.pa_cont.(i));
      pa_contby = Array.init nm (fun i -> x.pa_contby.(i) && y.pa_contby.(i));
    }
  in
  (* Decided-subtree prune, per size: the spec's pattern has matched
     (Eval.holds_c is monotone, so no completion satisfies the spec) and
     every lattice point's membership is constant over the subtree —
     either statically true at this size (Async; Ksync k with k ≥ nmsgs,
     since no SCC can exceed the message count) or already violated
     (every non-membership witness is a present structure: a cycle, a
     large SCC, an overtaking pair — all monotone). Pruned runs are
     members of exactly the statically-true points, with empty spec
     intersection. *)
  let prune_for nmsgs =
    let trivially_in =
      Array.map
        (function
          | Lattice.Async -> true
          | Lattice.Ksync k -> k >= nmsgs
          | _ -> false)
        models
    in
    let decided a =
      Eval.holds_c plan a
      && Array.for_all2
           (fun triv m -> triv || not (Lattice.is_member m a))
           trivially_in models
    in
    let on_pruned acc ~mult ~runs _a =
      let members = Array.copy acc.pa_members
      and cont = Array.copy acc.pa_cont in
      for i = 0 to nm - 1 do
        if trivially_in.(i) then begin
          members.(i) <- members.(i) + (mult * runs);
          cont.(i) <- false
        end
      done;
      {
        acc with
        pa_runs = acc.pa_runs + (mult * runs);
        pa_members = members;
        pa_cont = cont;
      }
    in
    (decided, on_pruned)
  in
  with_pool pool (fun pool ->
      let total =
        List.fold_left
          (fun acc (nprocs, nmsgs) ->
            merge acc
              (if sym then
                 Enumerate.fold_abstracts_sym_par ~pool ~nprocs ~nmsgs
                   ~prune:(prune_for nmsgs) ~init
                   ~f:(fun acc ~mult r -> step ~mult acc r)
                   ~merge ()
               else
                 Enumerate.fold_abstracts_par ~pool ~nprocs ~nmsgs ~init
                   ~f:(fun acc r -> step ~mult:1 acc r)
                   ~merge ()))
          init sizes
      in
      let places =
        List.init nm (fun i ->
            {
              pl_model = models.(i);
              pl_members = total.pa_members.(i);
              pl_inter = total.pa_inter.(i);
              pl_model_in_spec = total.pa_cont.(i);
              pl_spec_in_model = total.pa_contby.(i);
            })
      in
      let chosen keep extreme =
        let set =
          List.filteri (fun i _ -> keep i) (Array.to_list models)
        in
        List.filter
          (fun m ->
            not
              (List.exists
                 (fun m' -> (not (Lattice.equal m m')) && extreme m m')
                 set))
          set
      in
      {
        p_runs = total.pa_runs;
        p_spec = total.pa_spec;
        p_places = places;
        (* strongest guarantee: maximal models whose runs all satisfy
           the spec *)
        p_sufficient =
          chosen (fun i -> total.pa_cont.(i)) (fun m m' -> Lattice.leq m m');
        (* weakest model already implied by the spec: minimal models
           containing every satisfying run *)
        p_guarantees =
          chosen
            (fun i -> total.pa_contby.(i))
            (fun m m' -> Lattice.leq m' m);
      })

let pp_placement ppf p =
  Format.fprintf ppf "universe: %d runs, |X_B| = %d@." p.p_runs p.p_spec;
  List.iter
    (fun pl ->
      Format.fprintf ppf
        "  %-8s |X_M| = %6d  |X_M ∩ X_B| = %6d  M ⊆ B:%s  B ⊆ M:%s@."
        (Lattice.to_string pl.pl_model)
        pl.pl_members pl.pl_inter
        (if pl.pl_model_in_spec then "yes" else "no ")
        (if pl.pl_spec_in_model then "yes" else "no "))
    p.p_places;
  let names ms = String.concat ", " (List.map Lattice.to_string ms) in
  Format.fprintf ppf "  strongest models inside X_B: %s@."
    (match p.p_sufficient with [] -> "(none)" | ms -> names ms);
  Format.fprintf ppf "  weakest models containing X_B: %s@."
    (names p.p_guarantees)

let pp_verdict ppf v =
  Format.fprintf ppf
    "universe: %d runs, |X_sync| = %d, |X_co| = %d@.\
     [%s] X_sync subset of X_co subset of X_async (strict)@.\
     [%s] Lemma 3.2: X_B1 = X_B2 = X_B3 on every run@.\
     [%s] Lemma 3.2: X_B2 is exactly the causally ordered runs@.\
     [%s] Lemma 3.3: the order-0 predicates hold in no run"
    v.counts.runs v.counts.sync v.counts.causal
    (if v.subset_chain then "ok" else "MISMATCH")
    (if v.lemma32_equiv then "ok" else "MISMATCH")
    (if v.lemma32_exact then "ok" else "MISMATCH")
    (if v.lemma33_unsat then "ok" else "MISMATCH")
