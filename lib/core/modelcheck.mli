(** Parallel model checking of the Lemma 3 identities over exhaustively
    enumerated universes (experiment T2, and its [--deep] extension).

    The sequential T2 harness walks every concrete run with 2–3 processes
    and 2–3 messages (2,804 of them). This module runs the same checks
    sharded over a {!Mo_par.Pool} — one task per message configuration —
    which is what makes the 4-process / 4-message universe (about 4.6
    million additional runs) tractable. All reductions are sums and
    conjunctions, so every job count produces identical results. *)

type counts = { runs : int; causal : int; sync : int }
(** [|X_async|], [|X_co|], [|X_sync|] restricted to the checked sizes. *)

type verdict = {
  counts : counts;
  subset_chain : bool;
      (** [X_sync ⊂ X_co ⊂ X_async]: pointwise containment and strictness
          of both inclusions over the checked universe. *)
  lemma32_equiv : bool;  (** B1, B2, B3 agree on every run. *)
  lemma32_exact : bool;  (** [X_B2] is exactly the causal runs. *)
  lemma33_unsat : bool;  (** every order-0 async form holds everywhere. *)
}

val ok : verdict -> bool
(** All four checks passed. *)

val standard_sizes : (int * int) list
(** [(nprocs, nmsgs)] of T2: 2–3 processes × 2–3 messages, 2,804 runs. *)

val deep_sizes : (int * int) list
(** {!standard_sizes} plus the 4-process and 4-message universes up to
    (4, 4) — the [--deep] tier, only practical under the parallel
    engine. *)

val universe_sizes : (int * int) list
(** {!standard_sizes} plus (4,2), (4,3) and (3,4) — the 125,768-run
    tier used by the lattice and monitor differential suites: large
    enough to separate every lattice point, small enough for tier-1
    tests. *)

val vast_sizes : (int * int) list
(** {!deep_sizes} plus (5,2), (5,3), (5,4) and (4,5) — 77,830,564
    orbit-expanded runs, ~83x the deep tier. Only practical with
    [~sym:true], which enumerates the tier's ~31,700 canonical orbit
    representatives and expands counts exactly (bench B18). *)

val verify :
  ?pool:Mo_par.Pool.t ->
  ?sym:bool ->
  sizes:(int * int) list ->
  unit ->
  verdict
(** Enumerate every size and check each run against all four identities
    in one pass. [pool] defaults to a fresh pool with
    {!Mo_par.default_jobs} workers. [sym] (default false) switches to
    the symmetry-quotiented kernel ({!Mo_order.Enumerate.fold_abstracts_sym_par}):
    one canonical representative per orbit, counts expanded by exact
    orbit sizes — the verdict is identical
    (verdicts are orbit-invariant; checked exhaustively by
    test/test_sym.ml), the wall time is not. *)

type monitor_report = {
  m_runs : int;  (** concrete runs checked *)
  m_violations : (string * int) list;
      (** per predicate ([fifo], [causal_b2], [crown2]): offline-violating
          runs — extension-independent, so pinnable *)
  m_agree : bool;
      (** every sampled linear extension of every run produced the same
          verdict online ({!Pmon}) as the offline evaluator *)
}

val verify_monitor :
  ?pool:Mo_par.Pool.t ->
  ?extensions:int ->
  ?seed:int ->
  ?sample:int ->
  sizes:(int * int) list ->
  unit ->
  monitor_report
(** The online-vs-offline differential pass behind
    test/test_monitor.ml: every {e concrete} run of [sizes] is streamed
    through a compiled monitor ({!Pmon.exact}, so no retirement) along
    [extensions] (default 3) random linear extensions, and the sticky
    verdict is compared with {!Eval.holds} on the completed run.
    Extension seeds are derived from [seed] and the run content, never
    from sharding, so the result is identical at every job count.
    [sample] (default 1 = everything) streams only runs whose content
    hash is divisible by it — the nightly deep-tier mode, where the
    offline counts stay exact but only a deterministic ~[1/sample] of
    the universe is monitored. *)

(** {1 Lattice placement}

    Locating a specification's run set against every point of the
    communication-model lattice ({!Mo_order.Lattice}): for each model
    [M], the cardinalities [|X_M|] and [|X_M ∩ X_B|] over the
    enumerated universe plus the two empirical inclusions [X_M ⊆ X_B]
    (running under [M] suffices for the spec) and [X_B ⊆ X_M] (the spec
    already forces [M]). All reductions are sums and conjunctions, so
    the verdict is byte-identical at every job count. *)

type place = {
  pl_model : Mo_order.Lattice.model;
  pl_members : int;  (** [|X_M|] over the checked universe *)
  pl_inter : int;  (** [|X_M ∩ X_B|] *)
  pl_model_in_spec : bool;  (** [X_M ⊆ X_B] pointwise *)
  pl_spec_in_model : bool;  (** [X_B ⊆ X_M] pointwise *)
}

type placement = {
  p_runs : int;
  p_spec : int;  (** [|X_B|] *)
  p_places : place list;  (** one per {!Mo_order.Lattice.points}, in order *)
  p_sufficient : Mo_order.Lattice.model list;
      (** the {e maximal} models with [X_M ⊆ X_B]: the strongest
          communication guarantees under which the spec always holds
          (empty when even RSC violates it). *)
  p_guarantees : Mo_order.Lattice.model list;
      (** the {e minimal} models with [X_B ⊆ X_M]: the weakest lattice
          points the spec forces (never empty — [Async] is the top). *)
}

val placement :
  ?pool:Mo_par.Pool.t ->
  ?kmax:int ->
  ?sym:bool ->
  sizes:(int * int) list ->
  Forbidden.t ->
  placement
(** [kmax] (default 3) bounds the k-synchronous points swept.

    With [sym] false (the default) this is the concrete oracle: one
    enumeration pass over every run of [sizes] on [pool], evaluating the
    compiled predicate and every lattice membership per run.

    With [sym] true it answers from a table of the canonical leaves of
    the symmetry quotient, built on first use per [(nprocs, nmsgs)] and
    kept for the process (1,137 leaves over {!universe_sizes}). Each
    leaf carries its orbit weight and its memberships, so member counts
    are precomputed sums and a request is one pass of the compiled
    predicate over the leaves; [pool] is not used. The first build is
    safe when several domains race to it. The result is byte-identical
    to the concrete pass at every [kmax] and job count.

    Both inclusions follow from the counts: [X_M ⊆ X_B] iff
    [|X_M ∩ X_B| = |X_M|], and [X_B ⊆ X_M] iff [|X_M ∩ X_B| = |X_B|]. *)

val pp_placement : Format.formatter -> placement -> unit

val count :
  ?pool:Mo_par.Pool.t -> ?sym:bool -> sizes:(int * int) list -> unit -> counts
(** Just the limit-set cardinalities (skips the predicate evaluations);
    at the standard sizes this is the pinned [1424 ⊆ 1840 ⊆ 2804].
    [sym] as in {!verify}, with subtrees where causality and synchrony
    are both already broken collapsed into one memoized count. *)

val pp_verdict : Format.formatter -> verdict -> unit
