(** Incremental strict partial orders with an undo log.

    The enumeration kernel ({!Enumerate}) maintains {e one} order per
    configuration: placing the next event pushes its program-order edge,
    backtracking pops it. Reachability rows are unboxed int masks, so the
    universe is capped at 62 vertices — far above any enumerable run size
    (a run with [m] messages has [2m] events). Each vertex keeps its
    predecessor row beside its reach row, so the closure's transpose is
    read off as cheaply as the closure.

    Invariants maintained by [add_edge]/[undo]:
    - the reach row of [h] is always the {e strict} transitive closure
      of the edges accepted so far (bit [g] set iff [h ▷ g]), and the
      predecessor row of [g] its column (bit [h] set iff [h ▷ g]);
    - each row mutation logs the previous mask, and [undo] replays the log
      suffix in reverse order, so a row touched by several pushes is
      restored to its value at the mark;
    - a rejected ([`Cycle]) or implied (already [h ▷ g]) edge leaves the
      builder — including the log — untouched. *)

type t

type mark
(** A point in the undo log. Marks taken earlier may be undone to in any
    order as long as each [undo] target is no newer than the previous
    state (stack discipline). *)

val create : int -> t
(** [create n] is the discrete order on [{0..n-1}].
    @raise Invalid_argument when [n < 0] or [n > 62]. *)

val size : t -> int

val lt : t -> int -> int -> bool
(** [lt t h g] is [h ▷ g] in the current closure. *)

val mark : t -> mark

val add_edge : t -> int -> int -> [ `Ok | `Cycle ]
(** [add_edge t h g] extends the order with [h ▷ g] and closes
    transitively, logging every changed row. [`Cycle] (with no state
    change) when [h = g] or [g ▷ h] already holds. An edge already implied
    is accepted without logging anything. *)

val add_edge_exn : t -> int -> int -> unit
(** Like {!add_edge}. @raise Invalid_argument on [`Cycle]. *)

val undo : t -> mark -> unit
(** Restore the builder to its state when [mark] was taken. *)

val snapshot : ?relabel:int array -> t -> Poset.t
(** An immutable {!Poset.t} of the current order, vertex [v] renamed
    [relabel.(v)] (a permutation of [0..n-1]; the identity by default).
    O(n²) bits copied; the closure is {e not} recomputed.
    @raise Invalid_argument if [relabel] does not have length [n]. *)

val reach_mask : t -> int -> int
(** The raw reachability row of a vertex (bit [g] set iff [h ▷ g]). *)

val pred_mask : t -> int -> int
(** The raw predecessor row of a vertex (bit [h] set iff [h ▷ g]): the
    column of [g], kept alongside the rows. *)
