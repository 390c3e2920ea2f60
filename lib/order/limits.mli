(** The limit sets of §3.4: [X_sync ⊆ X_co ⊆ X_async].

    These are the three specifications that characterize implementability
    (Theorem 1): a specification [Y] admits a general / tagged / tagless
    protocol iff [X_sync ⊆ Y] / [X_co ⊆ Y] / [X_async ⊆ Y].

    Membership tests operate on abstract user-view runs:
    - every complete run is in [X_async];
    - a run is in [X_co] when no pair of messages violates causal ordering
      ([x.s ▷ y.s ⟹ ¬(y.r ▷ x.r)]);
    - a run is in [X_sync] when its time diagram can be drawn with vertical
      message arrows, equivalently (§3.4, after [18]) when the message graph
      is acyclic, in which case a numbering [T : M → ℕ] with
      [x.h ▷ y.f ⟹ T(x) < T(y)] exists. *)

type violation = {
  cycle : int list;
      (** Messages forming the offending structure: for a causal violation
          the pair [[x; y]] with [x.s ▷ y.s] and [y.r ▷ x.r]; for a sync
          violation the message cycle (a "crown"). *)
  reason : string;
}

val is_async : Run.Abstract.t -> bool
(** Always [true]: [X_async] is the ground set. Provided for symmetry and
    used when a table over all three sets is produced. *)

(** {1 Membership kernels}

    Three kernels answer both limit sets and every {!Lattice} point, with
    no witness. Each reads the packed {!Run.Abstract.masks} rows up to 62
    messages and the {!Run.Abstract.relations} Bitset rows beyond. *)

type guard = Any | Same_src | Same_dst | Same_channel
(** Which overtaking pairs count: all, or those sharing a source, a
    destination, or both ({!Run.attrs}; an unknown attribute satisfies
    no guard). *)

val no_overtake : guard -> Run.Abstract.t -> bool
(** No pair [x.s ▷ y.s ∧ y.r ▷ x.r] passes the guard: causal ordering
    under [Any], FIFO 1-n / n-1 / 1-1 under the other three. *)

type edges = Message_graph | One_queue
(** [ss ∪ sr ∪ rs ∪ rr], the message graph of §3.4, or
    [ss ∪ rs ∪ rr], the one-queue FIFO graph. *)

val acyclic : edges -> Run.Abstract.t -> bool
(** The graph over [edges] is acyclic: source peeling on packed rows,
    Kahn's algorithm on Bitset rows. *)

val max_scc : Run.Abstract.t -> int
(** The size of the largest strongly connected component of the message
    graph ([nmsgs] when that is 0 or 1), by Warshall closure. *)

val is_causal : Run.Abstract.t -> bool
(** [no_overtake Any]: equivalent to [Result.is_ok (check_causal r)]. *)

val is_sync : Run.Abstract.t -> bool
(** [acyclic Message_graph]: equivalent to [Result.is_ok (check_sync r)]. *)

(** {1 Witness-producing references}

    These recompute membership from {!Run.Abstract.lt} alone and name the
    offending messages. *)

val check_overtake : guard -> Run.Abstract.t -> (unit, violation) result
(** The reference for {!no_overtake}: the first guarded overtaking pair
    [[x; y]], in ascending [(x, y)] order. *)

val check_causal : Run.Abstract.t -> (unit, violation) result
(** [check_overtake Any]. *)

val numbering_or_crown :
  int -> (int -> int -> bool) -> (int array, int list) result
(** [numbering_or_crown n edge]: Kahn's algorithm over the graph on
    [0 .. n-1] with an edge [x → y] iff [edge x y]. [Ok t] is a
    topological numbering; [Error cycle] one cycle of the graph, in edge
    order. *)

val check_acyclic : edges -> Run.Abstract.t -> (int array, violation) result
(** The reference for {!acyclic}: {!numbering_or_crown} over [edges]. *)

val check_sync : Run.Abstract.t -> (int array, violation) result
(** [check_acyclic Message_graph]: on success a numbering [T] (indexed by
    message) witnessing the SYNC condition. *)

type cls = Sync | Causal_only | Async_only
(** The strongest limit set a run belongs to: [Sync] means
    [r ∈ X_sync]; [Causal_only] means [r ∈ X_co - X_sync]; [Async_only]
    means [r ∈ X_async - X_co]. *)

val classify : Run.Abstract.t -> cls

val cls_to_string : cls -> string

val pp_violation : Format.formatter -> violation -> unit
