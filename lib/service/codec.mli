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
          (default 3) bounds the k-synchronous points swept and must lie
          in [1 .. ]{!max_kmax}. Cached under the canonical digest
          {e and} kmax, like [classify]. *)
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
    {!classify_payload}. @raise Bad_request when [kmax] is outside
    [1 .. ]{!max_kmax}. *)

(** {2 Builders from a canonical key}

    Each [*_payload] above canonicalizes its arguments, then calls the
    builder below with the {!Mo_core.Canon.key} and its
    {!Mo_core.Canon.key_digest}. The engine computes that key once, at
    admission, for its cache key, and hands it to the builder, so a
    request is canonicalized once and the canonical predicate is
    materialized only on a cache miss. [builder (key p) (key_digest (key
    p))] is byte-identical to the payload of [p]. *)

val classify_of_key : Mo_core.Canon.key -> string -> Mo_obs.Jsonb.t

val implies_of_keys :
  Mo_core.Canon.key * string -> Mo_core.Canon.key * string -> Mo_obs.Jsonb.t

val witness_of_key : Mo_core.Canon.key -> string -> Mo_obs.Jsonb.t

val minimize_of_spec_key :
  members:int -> Mo_core.Canon.spec_key -> Mo_obs.Jsonb.t
(** [members] is the number of predicates the request listed. *)

val lattice_of_key :
  ?kmax:int -> ?sym:bool -> Mo_core.Canon.key -> string -> Mo_obs.Jsonb.t
(** @raise Bad_request when [kmax] is outside [1 .. ]{!max_kmax}. *)

val max_kmax : int
(** 64: the widest k-synchronous sweep a lattice request may ask for.
    Every run of the placement universe has at most 4 messages, so
    [Ksync k] for [k >= 4] already equals [Async]; the bound keeps a
    hostile [kmax] from building a huge model list. *)

(** {1 Framing} *)

val default_max_frame : int
(** 1 MiB. *)

(** {2 Replies and the frame writer}

    A reply is either a JSON tree ([Json]: errors, [stats] and
    [shutdown]) or an [ok] response around a result already printed
    ([Payload (id, text)]: every computed result, every cache hit and
    every batch). Both go out through one frame writer, which prints
    straight into bytes it has sized first: no frame is rendered to a
    scratch buffer and copied.

    The splice contract: the frame of [Payload (id, text)] is
    [<len>\n{"id":<id>,"ok":true,"result":<text>}\n] with
    [len = 6 + String.length (string_of_int id) + 20 + String.length
    text + 1], the id printed by {!Mo_obs.Jsonb.blit_int}. When [text]
    is [Jsonb.to_string payload], these are exactly the bytes of
    [encode_frame (ok_response ~id payload)], negative ids and
    [min_int] included. *)

type reply = Json of Mo_obs.Jsonb.t | Payload of int * string

val batch_result : reply list -> string
(** [{"responses":[<r1>,<r2>,...]}], each member printed as the JSON
    text of its reply (the body of its frame): the result text of a
    batch, spliced from its members' replies. It equals
    [Jsonb.to_string (Obj [("responses", List (List.map json_of_reply
    replies))])] whenever each member's text re-prints as itself. *)

val json_of_reply : reply -> Mo_obs.Jsonb.t
(** The reply as a tree; a [Payload]'s text is parsed back, which is
    exact for every payload without floats (no cached payload has one).
    The view of [Engine.serve_json_many] and of the tests; mopcd's own
    reply path never calls it.
    @raise Invalid_argument if a [Payload]'s text is not JSON. *)

type writer
(** A growable byte run of whole frames, reused across groups and never
    shrunk — the reply-side twin of {!reader}. One per connection. *)

val writer : unit -> writer
(** An empty writer with room for 4 KiB; it grows by doubling, to at
    least the size a group needs. *)

val add_reply : writer -> reply -> unit
(** Append the reply's frame; a client appends its request trees as
    [Json]. *)

val flush : Unix.file_descr -> writer -> unit
(** Write every pending frame (retrying partial writes), then empty the
    writer, keeping its capacity. *)

val encode_frame : Mo_obs.Jsonb.t -> string
(** One frame, printed into a string of exactly its length. *)

val write_frame : Unix.file_descr -> Mo_obs.Jsonb.t -> unit
(** Write a whole frame; retries partial writes. Several frames go out
    in one write through a {!writer}. *)

type reader
(** Growable buffered frame reader over a file descriptor. Bytes are
    consumed from the descriptor in bulk, so several pipelined frames
    arriving together are each parseable without another [read]. Each
    payload is parsed where it lies in the buffer
    ({!Mo_obs.Jsonb.of_bytes}), without a copy. *)

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
