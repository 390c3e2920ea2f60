(* Striped LRU: the key space is partitioned over [stripes] independent
   LRU structures (hash table plus an intrusive doubly-linked recency
   list, O(1) find/put/evict), each guarded by its own lock. Requests
   for different canonical digests land on different stripes and never
   contend on one lock — the per-key independence the pooled server
   needs. With one stripe this is exactly the PR 4 cache. *)

module Metrics = Mo_obs.Metrics

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable stamp : float; (* clock time of insert / last touch *)
  mutable prev : 'a node option; (* towards most-recent *)
  mutable next : 'a node option; (* towards least-recent *)
}

type 'a stripe = {
  lock : Mutex.t;
  s_cap : int;
  tbl : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option; (* most recently used *)
  mutable tail : 'a node option; (* least recently used *)
  (* per-stripe accounting, written only under [lock]: the evidence that
     traffic on distinct digests never serializes behind one stripe *)
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  age_min_s : float;
  age_median_s : float;
  age_max_s : float;
}

type 'a t = {
  cap : int;
  clock : unit -> float;
  stripes : 'a stripe array;
  resident : int Atomic.t; (* total entries, all stripes *)
  loaded : int Atomic.t; (* entries restored from a persisted snapshot *)
  c_hits : Metrics.counter;
  c_misses : Metrics.counter;
  c_evictions : Metrics.counter;
  g_size : Metrics.gauge;
}

let create ~capacity ?(stripes = 1) ?registry ?clock () =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  if stripes < 1 then invalid_arg "Cache.create: stripes must be >= 1";
  let registry =
    match registry with Some r -> r | None -> Metrics.create ()
  in
  let clock =
    match clock with Some c -> c | None -> Unix.gettimeofday
  in
  let stripe i =
    (* distribute the capacity; the first [cap mod n] stripes take the
       remainder so the total is exact *)
    let s_cap = (capacity / stripes) + (if i < capacity mod stripes then 1 else 0) in
    {
      lock = Mutex.create ();
      s_cap;
      tbl = Hashtbl.create (max 16 s_cap);
      head = None;
      tail = None;
      s_hits = 0;
      s_misses = 0;
      s_evictions = 0;
    }
  in
  {
    cap = capacity;
    clock;
    stripes = Array.init stripes stripe;
    resident = Atomic.make 0;
    loaded = Atomic.make 0;
    c_hits =
      Metrics.counter registry ~help:"decision cache hits" "svc.cache_hits";
    c_misses =
      Metrics.counter registry ~help:"decision cache misses"
        "svc.cache_misses";
    c_evictions =
      Metrics.counter registry ~help:"decision cache LRU evictions"
        "svc.cache_evictions";
    g_size =
      Metrics.gauge registry ~help:"decision cache resident entries"
        "svc.cache_size";
  }

let capacity t = t.cap

let nstripes t = Array.length t.stripes

let size t = Atomic.get t.resident

let loaded t = Atomic.get t.loaded

(* Hashtbl.hash is deterministic on strings, so the digest -> stripe map
   is a pure function of the key — stripe accounting stays reproducible *)
let stripe_of t key =
  t.stripes.(Hashtbl.hash key mod Array.length t.stripes)

let unlink s n =
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> s.head <- n.next);
  (match n.next with
  | Some nx -> nx.prev <- n.prev
  | None -> s.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front s n =
  n.next <- s.head;
  n.prev <- None;
  (match s.head with Some h -> h.prev <- Some n | None -> s.tail <- Some n);
  s.head <- Some n

let find t key =
  let s = stripe_of t key in
  let now = t.clock () in
  let hit =
    Mutex.protect s.lock (fun () ->
        match Hashtbl.find_opt s.tbl key with
        | Some n ->
            s.s_hits <- s.s_hits + 1;
            n.stamp <- now;
            unlink s n;
            push_front s n;
            Some n.value
        | None ->
            s.s_misses <- s.s_misses + 1;
            None)
  in
  (match hit with
  | Some _ -> Metrics.inc t.c_hits
  | None -> Metrics.inc t.c_misses);
  hit

let evict_lru s =
  match s.tail with
  | None -> false
  | Some n ->
      unlink s n;
      Hashtbl.remove s.tbl n.key;
      s.s_evictions <- s.s_evictions + 1;
      true

(* shared by put (counted) and restore (silent on hit/miss, counted on
   eviction): returns (inserted, evicted) deltas for the global gauges *)
let insert s key value ~now =
  match Hashtbl.find_opt s.tbl key with
  | Some n ->
      n.value <- value;
      n.stamp <- now;
      unlink s n;
      push_front s n;
      (0, 0)
  | None ->
      let n = { key; value; stamp = now; prev = None; next = None } in
      Hashtbl.replace s.tbl key n;
      push_front s n;
      if Hashtbl.length s.tbl > s.s_cap && evict_lru s then (1, 1)
      else (1, 0)

let apply_deltas t ~inserted ~evicted =
  let delta = inserted - evicted in
  if delta <> 0 then ignore (Atomic.fetch_and_add t.resident delta);
  if evicted > 0 then Metrics.add t.c_evictions evicted;
  Metrics.set t.g_size (Atomic.get t.resident)

let put t key value =
  if t.cap > 0 then begin
    let s = stripe_of t key in
    let now = t.clock () in
    let inserted, evicted =
      Mutex.protect s.lock (fun () -> insert s key value ~now)
    in
    apply_deltas t ~inserted ~evicted
  end

let restore t entries =
  if t.cap = 0 then 0
  else begin
    let n = ref 0 in
    let now = t.clock () in
    List.iter
      (fun (key, value) ->
        let s = stripe_of t key in
        let inserted, evicted =
          Mutex.protect s.lock (fun () -> insert s key value ~now)
        in
        apply_deltas t ~inserted ~evicted;
        incr n)
      entries;
    ignore (Atomic.fetch_and_add t.loaded !n);
    !n
  end

let snapshot t =
  (* least-recent first within each stripe, so replaying the list
     through [restore] (which pushes to the front) reproduces each
     stripe's recency order exactly *)
  let stripe_entries s =
    Mutex.protect s.lock (fun () ->
        let rec walk acc = function
          | None -> acc
          | Some n -> walk ((n.key, n.value) :: acc) n.next
        in
        (* walk head -> tail accumulating in reverse: tail ends up first *)
        walk [] s.head)
  in
  Array.to_list t.stripes |> List.concat_map stripe_entries

let stripe_stats t =
  let now = t.clock () in
  Array.map
    (fun s ->
      Mutex.protect s.lock (fun () ->
          (* the recency list is stamp-sorted (every touch both fronts
             the node and refreshes its stamp), so ages come out sorted
             head -> tail: min is the head, max the tail, and the median
             one walk to the middle *)
          let ages =
            let rec walk acc = function
              | None -> acc
              | Some n -> walk (Float.max 0. (now -. n.stamp) :: acc) n.next
            in
            (* head -> tail accumulated in reverse: oldest first *)
            Array.of_list (walk [] s.head)
          in
          let k = Array.length ages in
          let age_min_s = if k = 0 then 0. else ages.(k - 1) in
          let age_max_s = if k = 0 then 0. else ages.(0) in
          let age_median_s =
            if k = 0 then 0.
            else if k land 1 = 1 then ages.(k / 2)
            else 0.5 *. (ages.((k / 2) - 1) +. ages.(k / 2))
          in
          {
            hits = s.s_hits;
            misses = s.s_misses;
            evictions = s.s_evictions;
            size = Hashtbl.length s.tbl;
            age_min_s;
            age_median_s;
            age_max_s;
          }))
    t.stripes

let hits t = Metrics.counter_value t.c_hits

let misses t = Metrics.counter_value t.c_misses

let evictions t = Metrics.counter_value t.c_evictions
