(** Disk persistence of the digest -> decision table.

    A classification answered once is answered forever (the cache keys
    are canonical digests), so the decision table survives restarts
    losslessly: [mopcd --persist FILE] loads a snapshot at startup and
    writes one at shutdown, and a restarted daemon answers its first
    repeat query from the warm table instead of recomputing.

    The on-disk format is one compact JSON document
    [{"version": 2, "entries": [[key, payload], ...]}], entries in the
    order {!Cache.snapshot} emits (least-recently-used first within
    each stripe) so a load replays recency exactly.

    Crash safety: {!save} writes [FILE.tmp], fsyncs, then renames over
    [FILE] — a crash mid-save leaves the previous snapshot intact, and
    readers never observe a torn file. *)

val version : int
(** Current snapshot format version (2). Version 1 snapshots are
    refused: their classify entries were computed by a cycle enumeration
    that stopped silently at 100,000 cycles, so some hold wrong
    verdicts. *)

val save : path:string -> (string * string) list -> unit
(** Atomically replace the snapshot at [path] with [(key, payload
    text)] entries, each text a compact JSON document spliced in as it
    is, so the file holds the bytes [Jsonb.to_string] prints for the
    same table. Raises [Sys_error] / [Unix.Unix_error] on I/O failure;
    the previous snapshot (if any) is untouched in that case. *)

val load : path:string -> ((string * string) list option, string) result
(** [Ok None] when [path] does not exist (a cold start, not an error);
    [Error _] on unreadable, unparsable, or wrong-version snapshots —
    the daemon reports these and starts cold rather than dying. The
    whole file is parsed and validated before any entry is returned;
    each payload is then printed back to its compact text. *)
