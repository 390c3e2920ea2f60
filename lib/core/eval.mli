(** Evaluating forbidden predicates over runs.

    [B] {e holds} in a run when some instantiation of its variables by
    messages of the run satisfies every conjunct and guard; the run then
    violates the specification [X_B].

    Instantiations are {e injective} by default: distinct variables denote
    distinct messages. The paper quantifies plainly over [M], but its
    predicates only read correctly under distinctness — the SYNC crown
    [x1.s ▷ x2.r ∧ x2.s ▷ x1.r] would be "satisfied" by [x1 = x2 = x]
    through the tautology [x.s ▷ x.r], making [X_sync] empty. Pass
    [~distinct:false] to get the plain reading.

    The {e compiled} evaluator (the default behind
    {!find_match}/{!holds}/{!satisfies}) stages the predicate once into a
    matching plan over the run's packed relation rows
    ({!Mo_order.Run.Abstract.masks}): candidate messages for each variable
    are narrowed by row intersections, with most-constrained-variable-first
    ordering for the boolean queries. One search loop serves both run
    queries and {!Masked}, the streaming monitor's entry point; runs past
    62 messages and wide monitor windows take the same plan over Bitset
    rows. The original backtracking interpreter is kept verbatim as the
    differential reference ([*_ref]); the two agree byte-for-byte (see
    test/test_eval_fast.ml). *)

val find_match :
  ?distinct:bool -> Forbidden.t -> Mo_order.Run.Abstract.t -> int array option
(** An assignment [a] (variable index → message index) making [B] true, if
    any. The lexicographically least one, as the reference returns. *)

val find_matches :
  ?distinct:bool ->
  ?limit:int ->
  Forbidden.t ->
  Mo_order.Run.Abstract.t ->
  int array list
(** Up to [limit] (default 1000) distinct assignments, in lexicographic
    order. *)

val holds : ?distinct:bool -> Forbidden.t -> Mo_order.Run.Abstract.t -> bool
(** [B] is true somewhere in the run. *)

val satisfies :
  ?distinct:bool -> Forbidden.t -> Mo_order.Run.Abstract.t -> bool
(** The run belongs to [X_B]: no instantiation satisfies [B]. *)

val check_assignment :
  Forbidden.t -> Mo_order.Run.Abstract.t -> int array -> bool
(** Does this specific assignment satisfy all conjuncts and guards? *)

(** {1 Compile-once fast path}

    Callers evaluating one predicate against many runs (the model checker,
    the service layer) compile once and reuse the plan. A [compiled] value
    is immutable and safe to share across domains. *)

type compiled

val compile : Forbidden.t -> compiled

val predicate : compiled -> Forbidden.t

val find_match_c :
  ?distinct:bool -> compiled -> Mo_order.Run.Abstract.t -> int array option

val find_matches_c :
  ?distinct:bool ->
  ?limit:int ->
  compiled ->
  Mo_order.Run.Abstract.t ->
  int array list

val holds_c : ?distinct:bool -> compiled -> Mo_order.Run.Abstract.t -> bool

val satisfies_c : ?distinct:bool -> compiled -> Mo_order.Run.Abstract.t -> bool

(** {1 Matching over raw mask rows}

    The compiled plans evaluated directly against relation rows owned by
    someone else — in practice the streaming frontier of
    {!Mo_order.Monitor}, whose [masks]/[live]/attribute arrays have
    exactly this shape. This is the run evaluators' own search loop, with
    no run value and no allocation per {!holds} query: a [matcher]
    carries reusable scratch, so one per monitor (they are
    single-threaded, like the monitor itself). *)

module Masked : sig
  type matcher

  val make : ?distinct:bool -> compiled -> matcher
  (** [distinct] defaults to [true], as the predicate evaluators. *)

  val holds :
    matcher ->
    n:int ->
    live:int ->
    masks:int array ->
    src:int array ->
    dst:int array ->
    color:int array ->
    bool
  (** Is there a satisfying assignment over the live slots? [n] is the
      row stride ({!Mo_order.Monitor.window}), [masks] the eight
      sections in {!Mo_order.Run.Abstract.masks} order, [src]/[dst]/
      [color] per-slot attributes with [-1] for unknown (an unknown
      attribute satisfies no guard). *)

  val find :
    matcher ->
    n:int ->
    live:int ->
    masks:int array ->
    src:int array ->
    dst:int array ->
    color:int array ->
    int array option
  (** The first satisfying assignment (variable index → slot index) in
      the fast plan's order, if any. *)

  val holds_wide :
    matcher ->
    n:int ->
    live:Mo_order.Bitset.t ->
    rel:Mo_order.Bitset.t array ->
    src:int array ->
    dst:int array ->
    color:int array ->
    bool
  (** {!holds} over the Bitset rows of a {e wide} monitor
      ({!Mo_order.Monitor.Wide.rel}): same plan, same candidate
      filtering, set operations instead of word ops. The matcher keeps
      the search's scratch, built at its first wide query and again
      only when [n] changes, so a query allocates nothing. *)

  val find_wide :
    matcher ->
    n:int ->
    live:Mo_order.Bitset.t ->
    rel:Mo_order.Bitset.t array ->
    src:int array ->
    dst:int array ->
    color:int array ->
    int array option
end

(** {1 Reference interpreter}

    The pre-compilation backtracking matcher, kept as the differential
    baseline and for bench B14's "before" arm. *)

val find_match_ref :
  ?distinct:bool -> Forbidden.t -> Mo_order.Run.Abstract.t -> int array option

val find_matches_ref :
  ?distinct:bool ->
  ?limit:int ->
  Forbidden.t ->
  Mo_order.Run.Abstract.t ->
  int array list

val holds_ref :
  ?distinct:bool -> Forbidden.t -> Mo_order.Run.Abstract.t -> bool

val satisfies_ref :
  ?distinct:bool -> Forbidden.t -> Mo_order.Run.Abstract.t -> bool
