(** The request engine: canonicalize, consult the cache, compute, reply.

    Transport-free core of mopcd — the server feeds it parsed request
    envelopes, the tests and the B13 bench drive it directly. Every
    cacheable endpoint goes through the same funnel:

    {v input predicate(s) → Canon key + digest → LRU lookup → payload v}

    Each predicate is canonicalized once, at admission; a miss builds
    its payload from that key. The response to a request is a pure
    function of the alpha-equivalence class of its arguments, and
    hit/miss counters are a pure function of the request stream (the
    property the bench gate pins). [stats] and [shutdown] are never
    cached.

    The cache holds wire text: a miss prints its payload once
    ({!Mo_obs.Jsonb.to_string}, on the pool domain that computed it),
    caches that text and replies with it; a hit replies with the cached
    text as it is ([Codec.Payload]), building no tree. The reply-level
    entry points ({!serve_reply}, {!serve_replies}) are what mopcd
    serves. The tree API ({!handle}, {!serve}, {!serve_many},
    {!serve_json_many}, {!snapshot}) parses each payload's text back —
    exact, since no cached payload contains a float — so its responses
    are the same trees as ever, at the cost of one parse per reply.

    Batches: sub-requests are admitted (deadline check, cache lookup) in
    order on the caller's domain; the payloads of the distinct missing
    keys are then computed in parallel over the worker pool and inserted
    in first-occurrence order. Responses are therefore byte-identical
    for every job count. Pipelined groups ({!serve_many}) reuse the same
    admit-then-resolve machinery, so the guarantee carries over.

    The engine is safe to drive from several worker domains at once:
    the cache is striped ({!Cache}), the counters are atomic, and every
    compute is pure. Responses stay a pure function of each request;
    only wall-clock and lock micro-contention vary with concurrency. *)

type t

val create :
  ?cache_capacity:int ->
  ?stripes:int ->
  ?registry:Mo_obs.Metrics.t ->
  ?pool:Mo_par.Pool.t ->
  ?clock:(unit -> float) ->
  unit ->
  t
(** [cache_capacity] defaults to 4096 entries (0 disables caching);
    [stripes] (cache lock stripes, see {!Cache.create}) to 8;
    [registry] to a fresh one; [pool] to a default {!Mo_par.Pool};
    [clock] (seconds, used only for deadlines) to [Unix.gettimeofday] —
    injectable so deadline behaviour is testable. *)

val registry : t -> Mo_obs.Metrics.t

val cache_stats : t -> Mo_obs.Jsonb.t
(** [{capacity; stripes; size; loaded; hits; misses; evictions}]. *)

val snapshot : t -> (string * Mo_obs.Jsonb.t) list
(** The resident decision table, in the order {!restore} wants —
    what [--persist] writes at shutdown (see {!Cache.snapshot}). Each
    entry's text is parsed back into its tree. *)

val restore : t -> (string * Mo_obs.Jsonb.t) list -> int
(** Warm the decision table from a persisted snapshot (each payload
    printed to its text); returns entries processed. Does not count hits
    or misses ({!Cache.restore}). *)

val stripe_stats : t -> Cache.stats array
(** Per-stripe cache accounting — the striping tests' probe. *)

val serve_reply : t -> ?received:float -> Codec.envelope -> Codec.reply * bool
(** The reply to one request, plus whether the envelope was an
    {e admitted} top-level [Shutdown] (deadline-expired shutdowns report
    [false]) — the flag the server's accept loop stops on. A cache hit
    or a fresh result is a [Payload] carrying the cached text; errors,
    [stats], [shutdown] and batches are [Json] trees. Never raises on
    any input. *)

val handle : t -> ?received:float -> Codec.envelope -> Mo_obs.Jsonb.t
(** The response (an [ok]/[error] object echoing the request id).
    [received] is the request's arrival time on the engine clock
    (default: [clock ()] at entry — the server passes the moment the
    frame was read, so queueing delay counts against the deadline). A
    request whose [deadline_ms] has already elapsed since [received]
    when admitted is rejected with an error response; a top-level
    [Shutdown] request is answered [ok] (stopping the accept loop is the
    server's job), while a [Shutdown] nested in a batch is answered with
    an error — a batch member must never stop the server. Never raises
    on any input. *)

val serve : t -> ?received:float -> Codec.envelope -> Mo_obs.Jsonb.t * bool
(** {!serve_reply} as a tree: [handle] plus the shutdown flag. *)

val handle_json : t -> ?received:float -> Mo_obs.Jsonb.t -> Mo_obs.Jsonb.t
(** Parse and handle; a request that does not parse yields an error
    response rather than an exception. *)

val serve_json :
  t -> ?received:float -> Mo_obs.Jsonb.t -> Mo_obs.Jsonb.t * bool
(** Parse and {!serve}; unparsable requests yield an error response and
    [false]. *)

val serve_many :
  t -> ?received:float -> Codec.envelope list -> Mo_obs.Jsonb.t list * bool
(** Serve a pipelined group: every envelope is admitted in order on the
    caller's domain, the distinct missing keys are computed in parallel
    over the pool, and responses come back in request order — one per
    envelope, byte-identical to serving them one at a time (cache
    hit/miss {e counts} may differ: duplicates inside one group are all
    admitted before the first compute lands). The flag is [true] iff
    some envelope was an admitted top-level [Shutdown]; later envelopes
    in the group are still answered. *)

val serve_replies :
  t -> ?received:float -> Mo_obs.Jsonb.t list -> Codec.reply list * bool
(** Parse and serve a pipelined group as {!serve_many} does, returning
    replies; unparsable members yield error replies in their slots. The
    server's decode-ahead path: it splices the group into the
    connection's {!Codec.writer}. A group of cache hits builds no tree
    and allocates none of the resolve pass's work tables. *)

val serve_json_many :
  t -> ?received:float -> Mo_obs.Jsonb.t list -> Mo_obs.Jsonb.t list * bool
(** {!serve_replies} as trees. *)
