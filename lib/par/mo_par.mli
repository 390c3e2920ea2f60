(** Parallel execution over OCaml 5 domains, with deterministic results.

    The engine behind the exhaustive explorers, the fault-matrix suite,
    the mopcd engine and the bench sweeps. Every {!Pool} shares one
    process-wide set of long-lived helper domains, created lazily and
    grown on demand to the largest [jobs - 1] any map has needed; idle
    helpers sleep on a condition variable. A map cuts its index range
    into contiguous {e chunks}; the caller and up to [jobs - 1] helpers
    claim chunks off one atomic counter. Results are keyed by item index
    and merged in index order, so the outcome is a pure function of
    [(n, f)] — which domain computed which chunk is invisible.

    Determinism contract: for any [f] free of shared mutable state,
    [map pool n ~f] and [fold pool n ~f ~merge ~init] return the same
    value for every job count and chunk size, byte for byte. This is what
    lets `--jobs N` change wall-clock time and nothing else. *)

val available : bool
(** Always [true]: real domains back the pool. Kept so the bench
    artifacts' ["domains"] key stays stable. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the host's usable core count.
    Recorded by the bench artifacts so the regression gate knows whether
    two timing runs are comparable. *)

val default_jobs : unit -> int
(** The [MO_JOBS] environment variable when set to a positive integer,
    otherwise {!recommended_jobs}. *)

val rng : seed:int -> stream:int -> Random.State.t
(** An independent PRNG stream: deterministic in [(seed, stream)] and
    decorrelated across streams. Shard work by stream id — never share
    one [Random.State] between domains. *)

(** A persistent dispatch pool: [jobs] long-lived worker domains
    draining one FIFO task queue — the engine behind the mopcd accept
    loop, where tasks are whole connections rather than index ranges
    (use {!Pool} for data-parallel maps with deterministic merges; use
    this for long-running independent tasks). {!Pool}'s shared helpers
    are one of these. *)
module Workers : sig
  type t

  val create : jobs:int -> t
  (** Spawns the worker domains immediately.
      @raise Invalid_argument if [jobs < 1]. *)

  val jobs : t -> int

  val submit : t -> (unit -> unit) -> unit
  (** Enqueue a task; any idle worker picks it up in FIFO order.
      Exceptions escaping the task are swallowed — workers never die;
      tasks that care must catch their own. Submitting after
      {!shutdown} raises [Invalid_argument]. *)

  val shutdown : t -> unit
  (** Stop accepting work, run everything still queued, join the
      workers. Blocks until in-flight and queued tasks finish.
      Idempotent. *)
end

module Pool : sig
  type t

  val create : ?jobs:int -> unit -> t
  (** [jobs] defaults to {!default_jobs}. Creating a pool spawns
      nothing; it only bounds how many domains a map may use.
      @raise Invalid_argument if [jobs < 1]. *)

  val jobs : t -> int

  val helpers : unit -> int
  (** The helper domains alive in the process, shared by every pool:
      the largest [jobs - 1] (capped by the chunk count) that any map
      has used so far. *)

  val map : t -> ?chunk:int -> int -> f:(int -> 'a) -> 'a array
  (** [map t n ~f] is [[| f 0; …; f (n-1) |]], computed over chunks of
      [chunk] consecutive indices (default: an 8-chunks-per-job split).
      The caller claims chunks itself alongside up to [jobs - 1] shared
      helpers, and returns as soon as every chunk is finished — it never
      waits for a helper that has not woken yet. [f] may run off the
      caller's domain: it must not touch shared mutable state or raise
      to communicate. Several domains may map over one pool at once.
      The first exception raised by any [f] skips the chunks not yet
      started and is re-raised in the caller once the running ones
      finish; the pool stays usable. *)

  val fold :
    t ->
    ?chunk:int ->
    int ->
    f:(int -> 'a) ->
    merge:('b -> 'a -> 'b) ->
    init:'b ->
    'b
  (** [List.fold_left merge init [f 0; …; f (n-1)]], with the [f]s
      evaluated in parallel and [merge] applied on the caller's domain in
      index order — order-independent reductions are not required, ordered
      ones stay ordered. *)
end
