(** Exhaustive enumeration of small concrete runs.

    Used as a model checker: the theorems of the paper quantify over all
    runs, and for small universes (≤ 3 processes, ≤ 3 messages) we can check
    them against {e every} run rather than samples. A concrete run is
    determined by the per-process orderings of its events, subject to global
    acyclicity; enumeration is an in-place backtracking search over those
    orderings that maintains {e one} incremental happened-before closure per
    configuration ({!Order_builder}): placing an event pushes its
    program-order edge, backtracking pops it, and a placement that would
    close a cycle is pruned immediately. Runs sharing an enumeration prefix
    share the closure work for that prefix. *)

val permutations : 'a list -> 'a list list

val runs : nprocs:int -> msgs:(int * int) array -> Run.t list
(** All complete runs over exactly the given message set. Two runs are
    distinct iff some process executes its events in a different order. *)

val iter_runs : nprocs:int -> msgs:(int * int) array -> (Run.t -> unit) -> unit
(** Streaming form of {!runs}: the callback sees each run in enumeration
    order and no list is built. *)

val fold_runs :
  nprocs:int ->
  msgs:(int * int) array ->
  init:'acc ->
  f:('acc -> Run.t -> 'acc) ->
  'acc
(** Sequential fold over {!runs} in enumeration order, streaming. *)

val count_runs : nprocs:int -> msgs:(int * int) array -> int
(** [List.length (runs ~nprocs ~msgs)], but counted at the kernel's leaves:
    no run value, poset snapshot, or list is ever built. *)

val fold_abstracts :
  nprocs:int ->
  msgs:(int * int) array ->
  init:'acc ->
  f:('acc -> Run.Abstract.t -> 'acc) ->
  'acc
(** Like {!fold_runs} composed with {!Run.to_abstract}, but on the fast
    path: each abstract run is built directly from the kernel's live
    closure as packed relation masks ({!Run.Abstract.of_masks}) — no poset
    snapshot and no concrete run — and all runs of the configuration share
    one attrs array. Same enumeration order as {!fold_runs}. *)

val runs_ref : nprocs:int -> msgs:(int * int) array -> Run.t list
(** The pre-kernel reference enumerator (materialized permutations, product,
    from-scratch closure per candidate). Same run {e set} as {!runs} but in
    a different order; kept as the differential baseline and for bench B14's
    "before" arm. *)

val configs :
  ?allow_self:bool -> nprocs:int -> nmsgs:int -> unit -> (int * int) array list
(** All assignments of sources and destinations to [nmsgs] messages.
    Self-addressed messages (src = dst) are excluded unless
    [allow_self:true]: the paper's message sets [M_ij] implicitly connect
    distinct processes, and its Lemma 3 equivalences fail when a process
    may message itself (see DESIGN.md, "Model subtleties"). *)

val all_runs :
  ?allow_self:bool -> nprocs:int -> nmsgs:int -> unit -> Run.t list
(** [runs] over every configuration of [configs]. Exponential; intended for
    [nprocs ≤ 3], [nmsgs ≤ 3]. *)

val abstract_runs :
  ?allow_self:bool -> nprocs:int -> nmsgs:int -> unit -> Run.Abstract.t list
(** The abstract projections of {!all_runs} (duplicates not removed). *)

val fold_runs_par :
  pool:Mo_par.Pool.t ->
  ?allow_self:bool ->
  nprocs:int ->
  nmsgs:int ->
  init:'acc ->
  f:('acc -> Run.t -> 'acc) ->
  merge:('acc -> 'acc -> 'acc) ->
  unit ->
  'acc
(** Parallel fold over every run of {!all_runs}, sharded by message
    configuration (the enumeration prefix). Each shard computes
    [fold_runs ~init ~f] over its configuration's runs in enumeration
    order; shard accumulators are then combined with [merge] in
    configuration order, giving
    [fold_left merge init [acc_0; acc_1; …]]. The result is independent
    of the pool's job count — identical to a sequential evaluation — and
    the universe is streamed one run at a time, so memory stays flat even
    at sizes where {!all_runs} would not fit. *)

val fold_abstracts_par :
  pool:Mo_par.Pool.t ->
  ?allow_self:bool ->
  nprocs:int ->
  nmsgs:int ->
  init:'acc ->
  f:('acc -> Run.Abstract.t -> 'acc) ->
  merge:('acc -> 'acc -> 'acc) ->
  unit ->
  'acc
(** {!fold_runs_par} with {!fold_abstracts} at the leaves: the abstract
    fast path, sharded and merged identically. *)

(** {2 Symmetry quotients}

    Classification verdicts are invariant under process renaming (every
    predicate guard is an src/dst equality test; lattice membership and
    the causal/sync limits are structural) and under message relabeling
    (quantifiers range over message tuples; attrs travel with the
    relabeling). The entry points below exploit both: they enumerate one
    canonical representative per orbit and report exact orbit sizes, so
    orbit-expanded sums equal the unquotiented enumeration's — checked
    exhaustively by [test/test_sym.ml]. See DESIGN.md §3j. *)

val sym_mult : msgs:(int * int) array -> int
(** Size of the σ-orbit of any run of [msgs]: the product of [|c|!] over
    the interchangeability classes [c] (messages with identical
    (src, dst)). The σ-action — permuting messages within a class — is
    free on runs, so every orbit has exactly this many runs and exactly
    one canonical representative. *)

val configs_sym :
  ?allow_self:bool ->
  nprocs:int ->
  nmsgs:int ->
  unit ->
  ((int * int) array * int) list
(** {!configs} quotiented by process renaming {e and} message reorder:
    one lex-least sorted representative per orbit, in the order the
    orbits are first met among the sorted configs. The multiplicity is
    the number of ordered configs in the orbit; every config in an orbit
    has an isomorphic run set, so
    [Σ (mult × count_runs rep) = Σ count_runs] over {!configs}. This is
    the sharding domain of {!fold_abstracts_sym_par}. Each orbit is
    walked once, at a cost of [nprocs!] renamings of a packed int key.
    @raise Invalid_argument if [(nprocs²)^nmsgs] exceeds [max_int], the
    packed key's range. *)

val count_runs_sym : nprocs:int -> msgs:(int * int) array -> int
(** Equals {!count_runs}, computed as [sym_mult × canonical count] with
    the canonical count memoized on packed closure signatures — the whole
    configuration collapses into boundary-count lookups and no leaf is
    enumerated. *)

val fold_abstracts_sym :
  nprocs:int ->
  msgs:(int * int) array ->
  ?prune:
    ((Run.Abstract.t -> bool)
    * ('acc -> runs:int -> Run.Abstract.t -> 'acc)) ->
  init:'acc ->
  f:('acc -> Run.Abstract.t -> 'acc) ->
  unit ->
  'acc
(** Fold over the canonical σ-representative runs of one configuration
    (each stands for {!sym_mult} concrete runs, all with the same
    verdicts). [prune = (decided, on_pruned)] enables decided-subtree
    pruning: at each process boundary [decided] sees the {e partial}
    closure's abstract projection, and when it answers true the subtree
    collapses into one [on_pruned ~runs:n] call, [n] counted via the
    memoized signature table instead of enumerated. [decided] {b must be
    monotone}: the closure only grows along a branch, so it may only
    test for the {e presence} of structure (a forbidden pattern already
    matched, a violation already witnessed) — never its absence. *)

val fold_abstracts_sym_par :
  pool:Mo_par.Pool.t ->
  ?allow_self:bool ->
  sizes:(int * int) list ->
  ?prune:
    ((Run.Abstract.t -> bool)
    * ('acc -> mult:int -> runs:int -> Run.Abstract.t -> 'acc)) ->
  init:'acc ->
  f:('acc -> mult:int -> Run.Abstract.t -> 'acc) ->
  merge:('acc -> 'acc -> 'acc) ->
  unit ->
  'acc
(** Parallel quotiented fold over the whole universe of every
    [(nprocs, nmsgs)] in [sizes]. Each size's {!configs_sym} runs over
    the pool; then one fold, sharded by (size, representative) — the
    quotiented enumeration prefix — merges in that order, so the result
    is [fold_left merge init] over the shards' accumulators and
    byte-identical at every job count. Each canonical leaf or pruned
    subtree arrives with [mult = config orbit size × sym_mult]: its
    verdict stands for exactly [mult] (resp. [mult × runs]) concrete
    runs of the unquotiented universe. *)
