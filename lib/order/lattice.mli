(** The communication-model lattice: rendez-vous → asynchronous.

    The paper characterizes implementability against three limit sets
    [X_sync ⊆ X_co ⊆ X_async] ({!Limits}). Di Giusto, Ferré, Laversa and
    Lozes ("A partial order view of message-passing communication
    models") show these are three points of a richer lattice of
    communication models, each definable as a partial-order membership
    predicate on abstract runs:

    - [Rsc] — realizable with synchronous communication (rendez-vous):
      the message graph is acyclic, exactly the paper's [X_sync].
    - [Ksync k] — k-synchronous: every strongly connected component of
      the message graph spans at most [k] messages (a run is realizable
      with channel capacity [k], exchanging at most [k] messages per
      synchronous phase). [Ksync 1] is order-equal to [Rsc], and the
      chain [Ksync 1 ⊆ Ksync 2 ⊆ …] converges to [Async].
    - [Fifo_nn] — one global FIFO queue shared by all processes: the
      message digraph restricted to the [ss ∪ rs ∪ rr] edges is acyclic
      (enqueue order, dequeue order, and enqueue-after-dequeue order can
      be realized by a single queue).
    - [Causal] — causally ordered delivery, the paper's [X_co]: no pair
      with [x.s ▷ y.s] and [y.r ▷ x.r].
    - [Fifo_1n] — mailbox/FIFO 1-n: no such overtaking pair {e sent by
      the same process} (messages from one sender are delivered in send
      order, to anyone).
    - [Fifo_n1] — FIFO n-1: no overtaking pair {e delivered to the same
      process}.
    - [Fifo_11] — per-pair FIFO: no overtaking pair on the same
      (sender, destination) channel.
    - [Async] — fully asynchronous, the ground set [X_async].

    The FIFO guards read the per-message {!Run.attrs}: an unknown
    attribute satisfies no guard, so attribute-less runs vacuously
    belong to every FIFO model (matching the guarded-predicate
    convention of {!Mo_core.Eval}).

    The inclusion order is

    {v
        Rsc ⊆ Fifo_nn ⊆ Causal ⊆ {Fifo_1n, Fifo_n1} ⊆ Fifo_11 ⊆ Async
        Rsc = Ksync 1 ⊆ Ksync 2 ⊆ … ⊆ Async
    v}

    with [Ksync k] (k ≥ 2) incomparable to every interior point of the
    FIFO chain (a 2-crown is k-synchronous but not [Rsc]; an overtaking
    pair is [Ksync 2] but not causal; large crowns are causal but not
    [Ksync k] for any fixed [k]). Every pairwise inclusion, and every
    claimed non-inclusion, is verified empirically over the 125,768-run
    standard universe in test/test_lattice.ml. *)

type model =
  | Rsc
  | Ksync of int  (** [k >= 1]; [Ksync 1] is order-equal to [Rsc]. *)
  | Fifo_nn
  | Causal
  | Fifo_1n
  | Fifo_n1
  | Fifo_11
  | Async

type violation = Limits.violation = { cycle : int list; reason : string }

val is_member : model -> Run.Abstract.t -> bool
(** Membership of the run in the model's limit set, by one of the three
    {!Limits} kernels: {!Limits.acyclic} for [Rsc] (the message graph)
    and [Fifo_nn] (the one-queue graph), {!Limits.max_scc} for [Ksync],
    {!Limits.no_overtake} for [Causal] and the FIFO models.
    @raise Invalid_argument on [Ksync k] with [k < 1]. *)

val max_scc : Run.Abstract.t -> int
(** {!Limits.max_scc}: [is_member (Ksync k) r] is exactly
    [max_scc r <= k], so one count answers every [k]. *)

val check : model -> Run.Abstract.t -> (unit, violation) result
(** The witness-producing reference: recomputes membership over
    {!Run.Abstract.lt} without the kernels' rows, and on failure names the
    offending messages — the overtaking pair for the FIFO/causal models
    ({!Limits.check_overtake}), the message cycle for [Rsc]/[Fifo_nn]
    ({!Limits.check_acyclic}), the oversized strongly connected component
    for [Ksync] (a reachability search per message). Agrees with
    {!is_member} on every run (the differential bar of
    test/test_lattice.ml and bench B17). *)

(** {1 The lattice order, as data} *)

val equal : model -> model -> bool
(** Order-equality: [equal Rsc (Ksync 1)] is [true]. *)

val leq : model -> model -> bool
(** [leq a b] iff [X_a ⊆ X_b] over all runs. A partial order up to
    {!equal}. *)

val join : model -> model -> model
(** Least upper bound; e.g. [join Fifo_1n Fifo_n1 = Fifo_11] and
    [join (Ksync 2) Causal = Async]. *)

val meet : model -> model -> model
(** Greatest lower bound; e.g. [meet Fifo_1n Fifo_n1 = Causal] and
    [meet (Ksync 2) Causal = Rsc]. *)

val points : ?kmax:int -> unit -> model list
(** The finite sublattice used for classification sweeps: [Rsc],
    [Ksync 2 .. Ksync kmax] ([kmax] defaults to 3), the FIFO/causal
    chain, and [Async] — in a fixed order ({!leq}-compatible: a model
    never precedes one it strictly contains). *)

val hasse : ?kmax:int -> unit -> (model * model) list
(** The covering pairs [(a, b)] (a ⊂ b, nothing strictly between) of
    {!points} — the Hasse diagram of the finite sublattice. *)

val to_string : model -> string
(** Canonical names: ["rsc"], ["ksync2"], ["fifo-nn"], ["causal"],
    ["fifo-1n"], ["fifo-n1"], ["fifo-11"], ["async"]. *)

val of_string : string -> model option
(** Inverse of {!to_string}; also accepts ["sync"], ["co"], ["mailbox"]
    and underscore/undashed spellings. *)

val pp_violation : Format.formatter -> violation -> unit
