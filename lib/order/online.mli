(** Online (streaming) ordering monitors.

    The offline checkers ({!Limits}, predicate evaluation) build the full
    happened-before poset — quadratic space, fine for analysis but not for
    monitoring long executions. This module detects FIFO and causal-order
    violations {e as events arrive}, the way a deployed protocol would,
    using per-channel counters and vector clocks; the SYNC property (a
    global acyclicity condition) is checked at the end from message-graph
    edges collected along the way.

    Feed events in execution order (any linear extension of the run:
    per-process order must be respected, and a send must precede its
    delivery). The monitor is the runtime face of the paper's tagging
    story: everything it needs for FIFO/causal is exactly what the tagged
    protocols carry.

    For arbitrary forbidden predicates (and bounded memory on unbounded
    streams) see {!Monitor} and [Mo_core.Pmon], which generalize the
    FIFO/causal halves of this monitor; this one remains the cheap
    special case and the only SYNC checker. *)

type t

type violation = {
  kind : [ `Fifo | `Causal ];
  earlier : int;  (** the overtaken message *)
  later : int;  (** the message delivered too early *)
  at : int;
      (** 0-based index, in the event stream, of the delivery that
          completed the violation *)
  channel : int * int;  (** (src, dst) of the [later] message *)
}

val create : nprocs:int -> nmsgs:int -> t
(** Monitor for a run of at most [nmsgs] messages over [nprocs]
    processes. *)

val send : t -> msg:int -> src:int -> dst:int -> unit
(** Record [msg.s] executed at [src]. @raise Invalid_argument on reuse of
    a message id or out-of-range arguments. *)

val deliver : t -> msg:int -> violation list
(** Record [msg.r] executed at the destination; returns the FIFO and/or
    causal violations this delivery completes (empty list if none). The
    monitor keeps running after violations. *)

val events : t -> int
(** Events consumed so far (sends and deliveries). *)

val pending : t -> int
(** Messages sent but not yet delivered. *)

val frontier_bytes : t -> int
(** Resident bytes of the monitor state: clocks, pasts, per-message
    records and pending indices. Unlike {!Monitor.frontier_bytes} this
    grows with [nmsgs] — the SYNC check needs the whole message graph —
    which is exactly the ceiling the B15 bench makes visible. *)

val finalize_sync : t -> (int array, int list) result
(** After the run: [Ok numbering] if the run was logically synchronous
    (the SYNC numbering over messages), or [Error cycle] with a message
    cycle (crown), in edge order, from {!Limits.numbering_or_crown}. *)

val feed_run : Run.t -> violation list * (int array, int list) result
(** Drive the monitor with a recorded run (events in a linear extension)
    and return everything it found — the bridge used by tests to compare
    against the offline checkers. *)
