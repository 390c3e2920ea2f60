(** The mopcd wire codec: length-prefixed JSON frames.

    One frame is [<decimal byte length>\n<payload>\n] where the payload
    is a compact {!Mo_obs.Jsonb} document. The explicit length makes
    truncation detectable (a dead client can never leave the server
    waiting on an unbounded line) and caps the damage of garbage input:
    oversized or non-numeric headers are rejected before any payload is
    read.

    Requests and responses are JSON objects. A request carries [id]
    (echoed back), an [op], optional [deadline_ms], and the op's
    arguments; a response carries [id], [ok], and either [result] or
    [error]. The payload builders below are shared verbatim with the
    CLI's [--json] output, so the two surfaces cannot drift. *)

type request =
  | Classify of Mo_core.Forbidden.t
  | Implies of Mo_core.Forbidden.t * Mo_core.Forbidden.t
  | Minimize of Mo_core.Forbidden.t list
  | Witness of Mo_core.Forbidden.t
  | Monitor of Mo_core.Forbidden.t * string * int option
      (** [(pred, trace, window)]: stream a trace (the
          [Mo_workload.Trace_io] text format, prefixes allowed) through
          a compiled monitor for [pred]. Never cached — the payload
          depends on the trace, not just the predicate. [window]
          defaults to {!Mo_order.Monitor.max_window}. *)
  | Lattice of Mo_core.Forbidden.t * int option
      (** [(pred, kmax)]: place the spec's run set against every point
          of the communication-model lattice over the 125,768-run
          standard universe ({!Mo_core.Modelcheck.placement}). [kmax]
          (default 3) bounds the k-synchronous points swept. Cached
          under the canonical digest {e and} kmax, like [classify]. *)
  | Stats
  | Shutdown
  | Batch of envelope list
      (** Independent sub-requests answered in order; cache misses are
          sharded over the worker pool. Batches do not nest. *)

and envelope = { id : int; deadline_ms : int option; req : request }

exception Bad_request of string
(** Raised by payload builders on invalid {e arguments} (a malformed
    trace, an exhausted monitor window); the engine answers these with
    the message verbatim, unlike unexpected exceptions which are
    reported as internal errors. *)

val request_of_json :
  Mo_obs.Jsonb.t -> (envelope, int * string) result
(** Parse a request object. On error the [int] is the request's [id]
    when one could be extracted (so the error response can still be
    correlated), [0] otherwise. *)

val request_to_json : envelope -> Mo_obs.Jsonb.t

(** {1 Responses} *)

val ok_response : id:int -> Mo_obs.Jsonb.t -> Mo_obs.Jsonb.t

val error_response : id:int -> string -> Mo_obs.Jsonb.t

val result_of_response :
  Mo_obs.Jsonb.t -> (Mo_obs.Jsonb.t, string) result
(** Extract [result] from an [ok] response, or the [error] message. *)

(** {1 Result payloads} — shared by the service and the CLI [--json]. *)

val classify_payload : Mo_core.Forbidden.t -> Mo_obs.Jsonb.t
(** Canonical predicate, digest, verdict, protocol class, cycle orders,
    [necessity_exact] and the simplification outcome. When the order set
    is truncated ({!Mo_core.Classify.result}), ["orders_truncated": true]
    follows ["orders"]; the field is absent otherwise. The rendering is
    of the {e canonical} form, so alpha-equivalent inputs produce
    byte-identical payloads — the invariant the decision cache relies
    on. *)

val implies_payload : Mo_core.Forbidden.t -> Mo_core.Forbidden.t -> Mo_obs.Jsonb.t

val witness_payload : Mo_core.Forbidden.t -> Mo_obs.Jsonb.t

val minimize_payload : Mo_core.Forbidden.t list -> Mo_obs.Jsonb.t

val monitor_payload :
  ?window:int -> Mo_core.Forbidden.t -> trace:string -> Mo_obs.Jsonb.t
(** Events consumed, pending count, window, resident frontier bytes, and
    the violation ([null], or [{at; witness}] with the 0-based index of
    the event at which the match became unavoidable and the matched
    message ids). The predicate is monitored as written — not
    canonicalized — so [witness] indices line up with the caller's
    variable order. @raise Bad_request on a malformed trace or an
    exhausted window. *)

val lattice_payload :
  ?kmax:int -> ?sym:bool -> Mo_core.Forbidden.t -> Mo_obs.Jsonb.t
(** Canonical predicate, digest, [kmax], universe size, [|X_B|], one
    row per lattice point ([members], [intersection], and the two
    empirical inclusions), plus the [sufficient] (maximal models inside
    [X_B]) and [guarantees] (minimal models containing it) summaries.
    [kmax] (default 3) bounds the k-synchronous sweep. [sym] (default
    [true]) walks the universe up to process and message renaming
    ({!Mo_core.Modelcheck.placement}[ ~sym]); [false] walks every
    concrete run — same payload, byte for byte. Rendered from
    the canonical form, so alpha-equivalent inputs produce
    byte-identical payloads — the cache invariant of
    {!classify_payload}. @raise Bad_request when [kmax < 1]. *)

(** {1 Framing} *)

val default_max_frame : int
(** 1 MiB. *)

val encode_frame : Mo_obs.Jsonb.t -> string

val write_frame : Unix.file_descr -> Mo_obs.Jsonb.t -> unit
(** Write a whole frame; retries partial writes. *)

val write_frames : Unix.file_descr -> Mo_obs.Jsonb.t list -> unit
(** Write several frames as one contiguous byte run (one syscall batch
    in the common case) — how a pipelined connection's responses go out
    in request order. *)

type reader
(** Growable buffered frame reader over a file descriptor. Bytes are
    consumed from the descriptor in bulk, so several pipelined frames
    arriving together are each parseable without another [read]. *)

val reader : Unix.file_descr -> reader

val read_frame :
  ?max_len:int -> reader -> (Mo_obs.Jsonb.t option, string) result
(** Block until one whole frame (or end-of-stream) is available.
    [Ok None] on end-of-stream at a frame boundary; [Error _] on a
    malformed header, an oversized frame ([max_len], default
    {!default_max_frame}), bad JSON, or EOF mid-frame. *)

val read_frame_nonblock :
  ?max_len:int ->
  reader ->
  [ `Frame of Mo_obs.Jsonb.t | `Nothing | `Eof | `Error of string ]
(** Like {!read_frame} but never blocks: parse a frame already
    buffered, else poll the descriptor once ([select] with a zero
    timeout) and read whatever is ready. [`Nothing] means no complete
    frame yet — the decode-ahead signal that lets the server keep
    computing earlier requests while a later one is still in flight. *)
