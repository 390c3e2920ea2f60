(** The paper's decision algorithm (Theorems 2, 3 and 4).

    Given a forbidden predicate [B] with specification [X_B]:
    - [X_B] is implementable iff the predicate graph has a cycle
      (Theorem 2);
    - the trivial (tagless) protocol suffices iff some cycle has order 0
      (then [X_B = X_async]);
    - tagging suffices (no control messages) iff some cycle has order ≤ 1
      (then [X_co ⊆ X_B]);
    - otherwise control messages are necessary and sufficient
      ([X_sync ⊆ X_B] but [X_co ⊄ X_B]).

    The verdict is decided in polynomial time on the event graph
    ({!Cycles.least_order_capped}); the reported orders and certificate
    come from {!Cycles.orders}, which lists no cycle and has a fixed work
    budget.

    The necessity directions (Theorem 4) are proved for unguarded
    predicates; for guarded predicates the reported class is an upper bound
    (sufficiency still holds because guards only enlarge [X_B]), and
    {!result}'s [necessity_exact] is [false]. *)

type protocol_class = Tagless | Tagged | General

val class_to_string : protocol_class -> string

val class_leq : protocol_class -> protocol_class -> bool
(** [Tagless ≤ Tagged ≤ General]: protocol power ordering. *)

type verdict =
  | Not_implementable
      (** No protocol can guarantee safety and liveness:
          [X_sync ⊄ X_B]. *)
  | Implementable of protocol_class
      (** The weakest protocol class that implements the specification. *)

type result = {
  verdict : verdict;
  orders : int list;
      (** Sorted, deduplicated orders of all simple cycles: exact unless
          [orders_truncated], then only the orders found within
          {!Cycles.step_budget} (possibly none). *)
  orders_truncated : bool;
      (** The order set is incomplete (see {!Cycles.orders}). The verdict
          is exact regardless: it comes from
          {!Cycles.least_order_capped}. *)
  best_cycle : Cycles.cycle option;
      (** The first cycle of least order in {!Cycles.enumerate}'s order —
          the certificate behind the verdict. [None] when there is no
          cycle or [orders_truncated]. *)
  necessity_exact : bool;
      (** [true] for unguarded predicates: the class is also necessary.
          [false] when guards are present (class is sufficient only) —
          see module comment. *)
  simplification : [ `None | `Dropped_tautologies | `Unsatisfiable ];
      (** What {!Forbidden.simplify} did. [`Unsatisfiable] forces verdict
          [Implementable Tagless] regardless of the graph. *)
}

val classify : Forbidden.t -> result

val explain : ?result:result -> Forbidden.t -> string
(** A multi-line, human-readable justification of the verdict, citing the
    theorem that applies, the certificate cycle with its β-vertices, and
    the Lemma 4 contraction to a canonical form. Meant for the CLI and for
    teaching; the content mirrors the paper's proof structure.

    [result], when given, must be [classify p] computed by the caller —
    [explain] then reuses it instead of classifying a second time. *)

val verdict_to_string : verdict -> string

val pp_result : Format.formatter -> result -> unit
