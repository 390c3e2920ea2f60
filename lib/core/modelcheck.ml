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
          Enumerate.fold_abstracts_sym_par ~pool ~sizes
            ?prune:(verify_prune plans) ~init:acc_init
            ~f:(fun acc ~mult r -> step_mult plans ~mult acc r)
            ~merge:acc_merge ()
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
      if sym then
        Enumerate.fold_abstracts_sym_par ~pool ~sizes ~prune:cprune
          ~init:czero
          ~f:(fun acc ~mult r -> cstep ~mult acc r)
          ~merge:cmerge ()
      else
        List.fold_left
          (fun acc (nprocs, nmsgs) ->
            cmerge acc
              (Enumerate.fold_abstracts_par ~pool ~nprocs ~nmsgs ~init:czero
                 ~f:(fun acc r -> cstep ~mult:1 acc r)
                 ~merge:cmerge ()))
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

(* The lattice points whose membership does not depend on [kmax], one
   bit each in a leaf's [bits]. [Ksync k] is read off the leaf's largest
   message-graph SCC instead, so one table serves every sweep. *)
let fixed_points =
  Lattice.[| Rsc; Fifo_nn; Causal; Fifo_1n; Fifo_n1; Fifo_11; Async |]

(* a swept point as a membership test on a leaf's (bits, scc) *)
type test = Bit of int | Scc_le of int

let test_of = function
  | Lattice.Ksync k when k >= 2 -> Scc_le k
  | m ->
      (* Lattice.equal raises on Ksync k < 1, as Lattice.is_member *)
      let rec find i =
        if Lattice.equal fixed_points.(i) m then Bit i else find (i + 1)
      in
      find 0

let passes test ~bits ~scc =
  match test with Bit i -> bits land (1 lsl i) <> 0 | Scc_le k -> scc <= k

(* One canonical leaf of the symmetry quotient: its run, the number of
   concrete runs it stands for (config orbit size × sym_mult) and its
   spec-independent lattice memberships. *)
type leaf = { run : Run.Abstract.t; mult : int; bits : int; scc : int }

type table = {
  leaves : leaf array;
  runs : int; (* Σ mult *)
  fixed_members : int array; (* Σ mult per fixed point *)
  scc_members : int array; (* .(s) = Σ mult over leaves with scc ≤ s *)
}

let build_table ~nprocs ~nmsgs =
  let leaves =
    List.concat_map
      (fun (msgs, cmult) ->
        let mult = cmult * Enumerate.sym_mult ~msgs in
        Enumerate.fold_abstracts_sym ~nprocs ~msgs ~init:[]
          ~f:(fun acc run ->
            let bits = ref 0 in
            Array.iteri
              (fun i m ->
                if Lattice.is_member m run then bits := !bits lor (1 lsl i))
              fixed_points;
            { run; mult; bits = !bits; scc = Lattice.max_scc run } :: acc)
          ())
      (Enumerate.configs_sym ~nprocs ~nmsgs ())
    |> Array.of_list
  in
  let sum keep =
    Array.fold_left
      (fun acc l -> if keep l then acc + l.mult else acc)
      0 leaves
  in
  {
    leaves;
    runs = sum (fun _ -> true);
    fixed_members =
      Array.init (Array.length fixed_points) (fun i ->
          sum (fun l -> l.bits land (1 lsl i) <> 0));
    scc_members = Array.init (nmsgs + 1) (fun s -> sum (fun l -> l.scc <= s));
  }

(* One table per size, built on first use and kept for the process.
   Readers take the published list without locking; a miss builds under
   [tables_lock] after a re-check, so domains racing to the first
   request build each size once. Not a bare [Lazy]: forcing one from two
   domains raises [CamlinternalLazy.Undefined]. The build walks
   sequentially, so it never re-enters a pool from inside a worker. The
   leaves carry their packed masks, which the compiled evaluator only
   reads, so every domain may share them. *)
let tables : ((int * int) * table) list Atomic.t = Atomic.make []

let tables_lock = Mutex.create ()

let table size =
  match List.assoc_opt size (Atomic.get tables) with
  | Some t -> t
  | None ->
      Mutex.protect tables_lock (fun () ->
          match List.assoc_opt size (Atomic.get tables) with
          | Some t -> t
          | None ->
              let nprocs, nmsgs = size in
              let t = build_table ~nprocs ~nmsgs in
              Atomic.set tables ((size, t) :: Atomic.get tables);
              t)

let members tbl = function
  | Bit i -> tbl.fixed_members.(i)
  | Scc_le k -> tbl.scc_members.(min k (Array.length tbl.scc_members - 1))

(* the counts a placement is rendered from, per swept point *)
type tally = {
  mutable t_runs : int;
  mutable t_spec : int;
  t_members : int array;
  t_inter : int array;
}

let tally_zero nm =
  {
    t_runs = 0;
    t_spec = 0;
    t_members = Array.make nm 0;
    t_inter = Array.make nm 0;
  }

let tally_sum x y =
  {
    t_runs = x.t_runs + y.t_runs;
    t_spec = x.t_spec + y.t_spec;
    t_members = Array.map2 ( + ) x.t_members y.t_members;
    t_inter = Array.map2 ( + ) x.t_inter y.t_inter;
  }

(* one pass of the compiled spec over each size's leaf table; the
   member counts are the table's precomputed sums *)
let tally_sym models plan sizes =
  let tests = Array.map test_of models in
  let t = tally_zero (Array.length models) in
  List.iter
    (fun size ->
      let tbl = table size in
      t.t_runs <- t.t_runs + tbl.runs;
      Array.iteri
        (fun i test -> t.t_members.(i) <- t.t_members.(i) + members tbl test)
        tests;
      Array.iter
        (fun l ->
          if Eval.satisfies_c plan l.run then begin
            t.t_spec <- t.t_spec + l.mult;
            Array.iteri
              (fun i test ->
                if passes test ~bits:l.bits ~scc:l.scc then
                  t.t_inter.(i) <- t.t_inter.(i) + l.mult)
              tests
          end)
        tbl.leaves)
    sizes;
  t

(* The concrete oracle: every run of every configuration, one shard per
   configuration with its own tally, summed in configuration order. *)
let tally_concrete ~pool models plan sizes =
  let nm = Array.length models in
  let add t r =
    let sat = Eval.satisfies_c plan r in
    t.t_runs <- t.t_runs + 1;
    if sat then t.t_spec <- t.t_spec + 1;
    Array.iteri
      (fun i m ->
        if Lattice.is_member m r then begin
          t.t_members.(i) <- t.t_members.(i) + 1;
          if sat then t.t_inter.(i) <- t.t_inter.(i) + 1
        end)
      models;
    t
  in
  List.fold_left
    (fun acc (nprocs, nmsgs) ->
      let cfgs = Array.of_list (Enumerate.configs ~nprocs ~nmsgs ()) in
      Mo_par.Pool.fold pool (Array.length cfgs)
        ~f:(fun i ->
          Enumerate.fold_abstracts ~nprocs ~msgs:cfgs.(i)
            ~init:(tally_zero nm) ~f:add)
        ~merge:tally_sum ~init:acc)
    (tally_zero nm) sizes

let placement ?pool ?(kmax = 3) ?(sym = false) ~sizes pred =
  let models = Array.of_list (Lattice.points ~kmax ()) in
  (* compiled before any worker shard runs, as [verify] *)
  let plan = Eval.compile pred in
  let t =
    if sym then tally_sym models plan sizes
    else with_pool pool (fun pool -> tally_concrete ~pool models plan sizes)
  in
  (* every run counts at least once, so the inclusions follow from the
     counts: X_M ⊆ X_B iff |X_M ∩ X_B| = |X_M|, and dually *)
  let places =
    List.init (Array.length models) (fun i ->
        {
          pl_model = models.(i);
          pl_members = t.t_members.(i);
          pl_inter = t.t_inter.(i);
          pl_model_in_spec = t.t_inter.(i) = t.t_members.(i);
          pl_spec_in_model = t.t_inter.(i) = t.t_spec;
        })
  in
  let chosen keep extreme =
    let set =
      List.filter_map
        (fun p -> if keep p then Some p.pl_model else None)
        places
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
    p_runs = t.t_runs;
    p_spec = t.t_spec;
    p_places = places;
    (* strongest guarantee: maximal models whose runs all satisfy the
       spec *)
    p_sufficient =
      chosen (fun p -> p.pl_model_in_spec) (fun m m' -> Lattice.leq m m');
    (* weakest model already implied by the spec: minimal models
       containing every satisfying run *)
    p_guarantees =
      chosen (fun p -> p.pl_spec_in_model) (fun m m' -> Lattice.leq m' m);
  }

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
