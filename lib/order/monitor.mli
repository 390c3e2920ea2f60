(** The streaming frontier automaton behind compiled predicate monitors.

    {!Online} detects the three fixed properties (FIFO, causal, SYNC).
    This module is the predicate-{e agnostic} half of the generalized
    monitor: it consumes send/delivery events one at a time and maintains
    the {e must-happened-before} relation of the stream — the set of
    endpoint pairs [x.p ▷ y.q] that hold in {e every} completion of the
    prefix seen so far — as packed bit-matrix rows in exactly the layout
    of {!Run.Abstract.masks}. A compiled forbidden predicate evaluated
    over these rows (see [Mo_core.Eval.Masked] and [Mo_core.Pmon]) then
    flags a violation the moment a match becomes unavoidable, not when
    it is finally observed.

    Must-edges beyond the observed order come from pending deliveries:
    once [y] is sent, its delivery [y.r] is a {e virtual} event that every
    completion must execute at [dst y], so [u ▷ y.r] is unavoidable as
    soon as [u ▷ y.s] holds or [u] enters the causal past of [dst y].
    Virtual events never gain {e outgoing} edges (a completion may always
    schedule [y.r] last, touching nothing), so the relation grows
    monotonically toward the real one: when [y] is actually delivered its
    rows are completed in place. See DESIGN.md §3h for the unavoidability
    argument.

    State is a fixed {e window} of message slots: per-slot relation
    rows, per-slot causal stamps, and per-process past masks — no
    poset, no event history. Windows up to {!max_window} (62) use
    packed int rows and allocate nothing once created: each row update
    walks only the set bits of its mask ({!Bitset.lowest_bit}, then
    [b land (b - 1)]), a message id is found by scanning the live
    slots' ids, and delivered slots wait for retirement in a ring of
    [window] ints. Wider windows (up to {!max_wide_window}) transparently
    fall back to {!Bitset} rows — the same automaton, update for update,
    at a constant factor's cost, with the same id scan and ring.
    Delivered messages are retired oldest-first when the window fills, so
    resident memory is a constant of [(window, nprocs)], independent of
    stream length. Retirement bounds what the monitor can match:
    detection is exact for matches whose messages are simultaneously
    resident (always true when [window >= nmsgs], the differential-test
    configuration). A send arriving while every slot holds an undelivered
    message raises [Invalid_argument] — size the window above the per-key
    in-flight bound. *)

type t

val max_window : int
(** 62: one slot per bit of an OCaml int, as {!Run.Abstract.masks} —
    the widest {e packed} window. Larger windows are served by the
    Bitset representation. *)

val max_wide_window : int
(** 4096: the widest window of the Bitset fallback. *)

val create : ?window:int -> ?wide:bool -> nprocs:int -> unit -> t
(** [window] defaults to 32. Windows above {!max_window} get the Bitset
    representation ({!is_wide}); [wide:true] forces it at any window —
    how the differential tests drive both representations over one
    stream ([wide:false] cannot override the width-mandated fallback).
    @raise Invalid_argument if [window] is outside
    [1 .. max_wide_window] or [nprocs <= 0]. *)

val window : t -> int

val nprocs : t -> int

val events : t -> int
(** Events consumed so far. *)

val pending : t -> int
(** Messages sent but not yet delivered (resident, by construction). *)

val retired : t -> int
(** Delivered messages whose slots have been recycled. *)

val send : t -> msg:int -> src:int -> dst:int -> ?color:int -> unit -> unit
(** Record [msg.s] at [src]. Message ids are arbitrary ints, unique per
    stream. [color] (default none) feeds [color(x) = c] guards.
    @raise Invalid_argument on a duplicate or out-of-range argument, or
    when the window is exhausted (every slot pending). *)

val deliver : t -> msg:int -> unit
(** Record [msg.r] at the destination given at send time.
    @raise Invalid_argument if [msg] is unknown (never sent, or already
    retired) or already delivered. *)

(** {1 The matcher's view}

    Read-only access for predicate evaluation; the arrays are owned by
    the monitor and mutated by {!send}/{!deliver}. Slots are assigned in
    arrival order and recycled, so a slot index is only meaningful
    between events. A monitor holds exactly one representation, fixed
    at {!create}: the relation rows and live slots are read through
    {!rep}, the slot arrays below through either. *)

val is_wide : t -> bool
(** [true] when the window exceeds {!max_window} and the state lives in
    Bitset rows. *)

val slot_src : t -> int array
(** Per-slot sending process ([-1] on free slots). *)

val slot_dst : t -> int array

val slot_color : t -> int array
(** Per-slot color, [-1] when the send carried none. *)

val slot_msg : t -> int -> int
(** The message id held by an occupied slot. *)

val slot_delivered : t -> int -> bool

(** {2 The relation rows}

    A matcher picks the representation once per event with {!rep} and
    reads the chosen representation's fields directly. *)

module Packed : sig
  type t

  val window : t -> int

  val live : t -> int
  (** Bit mask of occupied slots. *)

  val touched : t -> int
  (** Bit mask of the slots the latest event touched: every must-edge
      that event added has at least one endpoint among them. A send
      touches its own slot (a slot it reuses after retirement
      included); a delivery at [q] touches every slot that was pending
      at [q], the delivered one included, because its edges into the
      other pending deliveries at [q] need not touch the delivered
      slot. A match that is new at an event therefore puts some
      variable on a touched slot ([Mo_core.Pmon] relies on this).
      [0] before the first event; one int written per event. *)

  val masks : t -> int array
  (** The eight must-relation sections over slots, row [x] of relation
      [k] at index [k * window + x], in the {!Run.Abstract.masks} order
      [ss sr rs rr ss_t sr_t rs_t rr_t]. *)

  val slot_src : t -> int array
  val slot_dst : t -> int array
  val slot_color : t -> int array
end

module Wide : sig
  type t

  val window : t -> int

  val live : t -> Bitset.t
  (** Occupied slots. *)

  val touched : t -> Bitset.t
  (** {!Packed.touched} as a set, owned by the monitor and rewritten in
      place by every event. *)

  val rel : t -> Bitset.t array
  (** The eight must-relation sections as Bitset rows, indexed exactly
      as {!Packed.masks}. *)

  val slot_src : t -> int array
  val slot_dst : t -> int array
  val slot_color : t -> int array
end

type rep = P of Packed.t | W of Wide.t

val rep : t -> rep
(** The monitor's representation, fixed at {!create}: [P] exactly when
    [not (is_wide t)]. Allocates nothing. *)

val frontier_bytes : t -> int
(** The published memory bound of the frontier state, a fixed formula
    in [(window, nprocs)] that B15 pins and the [monitor] outputs
    print: the relation rows, slot arrays, stamps and per-process
    masks, plus an allowance of 4 words a slot. It is not a count of
    the live record (the slot ring takes 1 word a slot of that
    allowance, and the wide path's extra scratch sets are left out),
    but the record is as bounded: feeding more events never grows
    either (the B15 memory-ceiling bar). *)
