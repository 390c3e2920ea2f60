(** The mopcd accept loop: a dispatch pool in front of {!Engine}.

    The main domain owns the listening socket (Unix-domain or TCP) and
    blocks in [select] on two descriptors: the listener and a self-pipe.
    Each accepted connection is handed whole to a {!Mo_par.Workers}
    dispatch pool — one long-lived worker domain owns it from first
    frame to close, so [jobs] connections make independent progress and
    a slow client no longer holds the daemon.

    Safety of concurrent dispatch: the decision cache is striped (per
    digest), counters are atomic, and every compute is pure, so
    responses are byte-identical for any [jobs] — only wall-clock
    changes. Per-connection budgets bound how long a worker can be
    held: [recv_timeout_s] between frames (and on sends — a client that
    stops reading cannot wedge a writer), and [max_conn_requests]
    frames per connection, after which the server hangs up.

    Pipelining: within a connection the server decodes ahead — frames
    that have already arrived (up to [pipeline_depth]) are admitted as
    one group, their distinct cache misses computed in parallel, and
    the replies ({!Engine.serve_replies}) spliced in request order into
    the connection's one {!Codec.writer} and written back in one batch,
    from the writer's own bytes. A cache hit goes out as the cached
    wire text; no tree is built or printed for it. 

    Failure containment, in decreasing severity:
    - a frame that does not parse as JSON, or a request with a bad op or
      predicate, gets an error {e response} and the connection lives on;
    - a framing error (bad header, oversized frame, EOF mid-frame) or a
      read timeout closes that {e connection} — the byte stream can no
      longer be trusted;
    - nothing short of a signal stops the {e server}: per-connection
      exceptions are caught and logged to stderr.

    Shutdown is event-driven: SIGINT/SIGTERM handlers and a worker that
    admitted a [shutdown] request write one byte to the self-pipe, so
    the accept loop (blocked in [select] with no timeout) wakes
    immediately — there is no polling interval to wait out. The stop
    path closes the listener, [shutdown]s every registered in-flight
    connection (unblocking parked reads), drains the worker pool,
    writes the [--persist] snapshot if configured, and unlinks the
    socket file (UDS). *)

type transport =
  | Uds of string  (** Unix-domain socket at this path *)
  | Tcp of string * int
      (** [host:port]; port 0 binds an ephemeral port — [on_ready]
          receives the actual address *)

type config = {
  transport : transport;
  cache_capacity : int;  (** decision cache entries; 0 disables *)
  stripes : int;  (** cache lock stripes (see {!Cache.create}) *)
  jobs : int option;
      (** dispatch worker domains (and the engine pool's width);
          [None] = {!Mo_par.default_jobs} *)
  max_frame : int;  (** reject larger request frames *)
  recv_timeout_s : float;  (** per-read (and per-send) socket timeout *)
  max_conn_requests : int;
      (** frames served per connection before the server hangs up *)
  pipeline_depth : int;
      (** max frames admitted as one decode-ahead group *)
  persist : string option;
      (** snapshot file for the digest → decision table: loaded before
          the first connection, written atomically at shutdown *)
  persist_interval_s : float option;
      (** with [persist] set, additionally snapshot every this many
          seconds from the accept loop (select gets a finite timeout
          instead of blocking forever), so a kill-9'd daemon restarts
          warm from the last interval rather than cold; each save bumps
          the [svc.persist.saves] counter. Ignored without [persist] or
          when [<= 0]. *)
}

val default_config : socket_path:string -> config
(** UDS transport, 4096 cache entries over 8 stripes, default pool,
    1 MiB frames, 10 s socket timeout, 10_000 requests per connection,
    pipeline depth 64, no persistence. *)

val remove_stale_socket : string -> (unit, string) result
(** Crash-tolerant startup probe. A missing path is fine; a socket file
    nobody accepts on (a kill-9'd daemon's corpse, detected by a refused
    connect) is unlinked; a socket with a live listener, or a path that
    is not a socket at all, is an [Error] — starting would steal or
    clobber someone else's file. Called by {!run} before binding (UDS
    only). *)

val run :
  ?engine:Engine.t -> ?on_ready:(Unix.sockaddr -> unit) -> config -> unit
(** Bind, listen, dispatch until shutdown; then clean up. On startup a
    stale UDS socket file left by a crashed daemon is detected (liveness
    probe) and removed ({!remove_stale_socket}); a live daemon's socket
    is never stolen. [on_ready] fires once the socket is accepting,
    with the {e bound} address (so a TCP listener on port 0 can report
    the ephemeral port it got). [engine] defaults to a fresh one built
    from the config — injectable for tests; [--persist] restore/save
    applies either way.
    @raise Unix.Unix_error if the socket cannot be bound.
    @raise Failure if the socket path is owned by a live daemon, is not
    a socket, or the TCP host does not resolve. *)
