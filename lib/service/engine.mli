(** The request engine: canonicalize, consult the cache, compute, reply.

    Transport-free core of mopcd — the server feeds it parsed request
    frames, the tests and the B13 bench drive it directly. Every
    cacheable endpoint goes through the same funnel:

    {v input predicate(s) → Canon key + digest → LRU lookup → payload v}

    Each predicate is canonicalized once, at admission; a miss builds
    its payload from that key. The response to a request is a pure
    function of the alpha-equivalence class of its arguments, and
    hit/miss counters are a pure function of the request stream (the
    property the bench gate pins). [stats] and [shutdown] are never
    cached.

    One reply path: the cache holds wire text. A miss prints its payload
    once ({!Mo_obs.Jsonb.to_string}, on the pool domain that computed
    it), caches that text and replies with it; a hit replies with the
    cached text as it is ([Codec.Payload]); a batch's result is spliced
    from its members' reply texts ({!Codec.batch_result}); snapshots
    carry the text. The engine never parses text it printed itself.

    Batches and pipelined groups: members are admitted (deadline check,
    cache lookup) in order on the caller's domain; the payloads of the
    distinct missing keys are then computed in parallel over the worker
    pool and inserted in first-occurrence order. Replies are therefore
    byte-identical for every job count.

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

val snapshot : t -> (string * string) list
(** The resident decision table as [(key, payload text)], in the order
    {!restore} wants — what [--persist] writes (see {!Cache.snapshot}). *)

val restore : t -> (string * string) list -> int
(** Warm the decision table from a persisted snapshot; returns entries
    processed. Does not count hits or misses ({!Cache.restore}). *)

val stripe_stats : t -> Cache.stats array
(** Per-stripe cache accounting — the striping tests' probe. *)

val serve_reply : t -> ?received:float -> Codec.envelope -> Codec.reply * bool
(** The reply to one request (an [ok]/[error] response echoing the
    request id), plus whether the envelope was an {e admitted} top-level
    [Shutdown] (deadline-expired shutdowns report [false]) — the flag
    the server's accept loop stops on. A cache hit, a fresh result and a
    batch are a [Payload] carrying text; errors, [stats] and [shutdown]
    are [Json] trees.

    [received] is the request's arrival time on the engine clock
    (default: [clock ()] at entry — the server passes the moment the
    frame was read, so queueing delay counts against the deadline). A
    request whose [deadline_ms] has already elapsed since [received]
    when admitted is rejected with an error reply. A [Shutdown] or a
    [Batch] nested in a batch is answered with an error — a batch member
    must never stop the server. [svc.requests] counts every top-level
    request and every batch member, expired ones included (a frame that
    does not parse is not counted). Never raises on any input. *)

val serve_replies :
  t -> ?received:float -> Mo_obs.Jsonb.t list -> Codec.reply list * bool
(** Parse and serve a pipelined group: every member is admitted in order
    on the caller's domain, the distinct missing keys are computed in
    parallel over the pool, and replies come back in request order — one
    per member, byte-identical to serving them one at a time (cache
    hit/miss {e counts} may differ: duplicates inside one group are all
    admitted before the first compute lands). Unparsable members yield
    error replies in their slots. The flag is [true] iff some member was
    an admitted top-level [Shutdown]; later members are still answered.
    The server's decode-ahead path: it splices the group into the
    connection's {!Codec.writer}. A group of cache hits builds no tree
    and allocates none of the resolve pass's work tables. *)

val serve_json_many :
  t -> ?received:float -> Mo_obs.Jsonb.t list -> Mo_obs.Jsonb.t list * bool
(** {!serve_replies} with each reply parsed back into a tree
    ({!Codec.json_of_reply}). Kept only as the entry point of perfbench's
    traced replay, whose [engine.serve_us] it times; mopcd never calls
    it. *)
