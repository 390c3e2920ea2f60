open Mo_core
module J = Mo_obs.Jsonb
module Metrics = Mo_obs.Metrics

type t = {
  cache : string Cache.t;
  reg : Metrics.t;
  pool : Mo_par.Pool.t;
  clock : unit -> float;
  c_requests : Metrics.counter;
  c_errors : Metrics.counter;
  c_deadline : Metrics.counter;
  c_batches : Metrics.counter;
}

let create ?(cache_capacity = 4096) ?(stripes = 8) ?registry ?pool ?clock
    () =
  let reg = match registry with Some r -> r | None -> Metrics.create () in
  let pool = match pool with Some p -> p | None -> Mo_par.Pool.create () in
  let clock = match clock with Some c -> c | None -> Unix.gettimeofday in
  {
    cache =
      Cache.create ~capacity:cache_capacity ~stripes ~registry:reg ~clock
        ();
    reg;
    pool;
    clock;
    c_requests =
      Metrics.counter reg
        ~help:"parsed requests: every top-level request and batch member"
        "svc.requests";
    c_errors =
      Metrics.counter reg ~help:"requests answered with an error"
        "svc.errors";
    c_deadline =
      Metrics.counter reg ~help:"requests rejected past their deadline"
        "svc.deadline_expired";
    c_batches = Metrics.counter reg ~help:"batch requests" "svc.batches";
  }

let registry t = t.reg

let cache_stats t =
  let stripe (s : Cache.stats) =
    J.Obj
      [
        ("size", J.Int s.Cache.size);
        ("hits", J.Int s.Cache.hits);
        ("misses", J.Int s.Cache.misses);
        ("evictions", J.Int s.Cache.evictions);
        ("age_min_s", J.Float s.Cache.age_min_s);
        ("age_median_s", J.Float s.Cache.age_median_s);
        ("age_max_s", J.Float s.Cache.age_max_s);
      ]
  in
  J.Obj
    [
      ("capacity", J.Int (Cache.capacity t.cache));
      ("stripes", J.Int (Cache.nstripes t.cache));
      ("size", J.Int (Cache.size t.cache));
      ("loaded", J.Int (Cache.loaded t.cache));
      ("hits", J.Int (Cache.hits t.cache));
      ("misses", J.Int (Cache.misses t.cache));
      ("evictions", J.Int (Cache.evictions t.cache));
      ( "stripe_stats",
        J.List
          (Array.to_list
             (Array.map stripe (Cache.stripe_stats t.cache))) );
    ]

(* the cache holds each payload's text, so a snapshot is the cache's *)
let snapshot t = Cache.snapshot t.cache

let restore t entries = Cache.restore t.cache entries

let stripe_stats t = Cache.stripe_stats t.cache

let stats_payload t =
  J.Obj
    [ ("cache", cache_stats t); ("metrics", Metrics.to_json t.reg) ]

(* payload thunk of a computable request, with its cache key when the
   payload is a pure function of the canonicalized arguments; [None] as
   the key means compute-always (a monitor verdict depends on the
   trace, which has no useful canonical form). Each predicate is
   canonicalized here, once: the thunk receives the key, so a miss never
   canonicalizes again and a hit never materializes the canonical
   predicate. *)
let computable (req : Codec.request) =
  let keyed p =
    let k = Canon.key p in
    (k, Canon.key_digest k)
  in
  match req with
  | Codec.Classify p ->
      let k, d = keyed p in
      Some (Some ("c:" ^ d), fun () -> Codec.classify_of_key k d)
  | Codec.Witness p ->
      let k, d = keyed p in
      Some (Some ("w:" ^ d), fun () -> Codec.witness_of_key k d)
  | Codec.Implies (a, b) ->
      let ((_, da) as ka) = keyed a and ((_, db) as kb) = keyed b in
      Some
        ( Some ("i:" ^ da ^ ":" ^ db),
          fun () -> Codec.implies_of_keys ka kb )
  | Codec.Minimize ps ->
      let sk = Canon.spec_key (Spec.make ~name:"query" ps) in
      Some
        ( Some ("m:" ^ Canon.spec_key_digest sk),
          fun () ->
            Codec.minimize_of_spec_key ~members:(List.length ps) sk )
  | Codec.Monitor (p, trace, window) ->
      Some (None, fun () -> Codec.monitor_payload ?window p ~trace)
  | Codec.Lattice (p, kmax) ->
      (* kmax in the cache key: placements at different sweeps produce
         different payloads and must not collide under one digest *)
      let kmax = Option.value ~default:3 kmax in
      let k, d = keyed p in
      Some
        ( Some (Printf.sprintf "l:%d:%s" kmax d),
          fun () -> Codec.lattice_of_key ~kmax k d )
  | Codec.Stats | Codec.Shutdown | Codec.Batch _ -> None

let error t ~id msg =
  Metrics.inc t.c_errors;
  Codec.Json (Codec.error_response ~id msg)

(* admission: None when the request may proceed, Some reply when it is
   already past its deadline relative to its arrival time *)
let check_deadline t ~received (env : Codec.envelope) =
  match env.Codec.deadline_ms with
  | None -> None
  | Some d ->
      if (t.clock () -. received) *. 1000. > float_of_int d then begin
        Metrics.inc t.c_deadline;
        Some
          (error t ~id:env.Codec.id
             (Printf.sprintf "deadline of %d ms exceeded" d))
      end
      else None

(* what the sequential admission pass decides about one envelope *)
type admitted =
  | Done of Codec.reply (* reply already known *)
  | Stop of Codec.reply (* shutdown admitted: reply, then stop the server *)
  | Miss of int * string option * (unit -> J.t)
    (* id, cache key (None = uncached compute), pure compute *)

(* guard a pure compute so a bad predicate or trace can never kill the
   server; Bad_request carries a message meant for the client. The
   payload is printed here, once: the cache and the reply share the
   text. *)
let run_compute compute =
  try Ok (J.to_string (compute ())) with
  | Codec.Bad_request msg -> Error msg
  | e -> Error ("internal error: " ^ Printexc.to_string e)

let respond t ~id = function
  | Ok text -> Codec.Payload (id, text)
  | Error msg -> error t ~id msg

let finish_miss t ~id ~key result =
  (match (key, result) with
  | Some key, Ok text -> Cache.put t.cache key text
  | _ -> ());
  respond t ~id result

let is_miss = function Miss _ -> true | Done _ | Stop _ -> false

(* Resolve an admission pass: compute the distinct missing keys in
   parallel over the pool, insert payloads in first-occurrence order,
   fill one reply per slot in admission order. Shared by batches and
   pipelined groups — both get byte-identical replies for every job
   count because admission was sequential and this merge is ordered. *)
let resolve t admitted =
  if not (Array.exists is_miss admitted) then
    (* all hits: no work tables, no pool round trip *)
    Array.map (function Done r | Stop r -> r | Miss _ -> assert false)
      admitted
  else begin
    (* work units: the first occurrence of each missing cacheable key,
       plus every uncached miss (those are keyed by their position) *)
    let seen = Hashtbl.create 16 in
    let work = ref [] in
    Array.iteri
      (fun i a ->
        match a with
        | Done _ | Stop _ -> ()
        | Miss (_, Some key, compute) ->
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.replace seen key ();
              work := (i, Some key, compute) :: !work
            end
        | Miss (_, None, compute) -> work := (i, None, compute) :: !work)
      admitted;
    let work = Array.of_list (List.rev !work) in
    let results =
      Mo_par.Pool.map t.pool (Array.length work) ~f:(fun i ->
          let _, _, compute = work.(i) in
          run_compute compute)
    in
    let by_key = Hashtbl.create 16 in
    let by_slot = Hashtbl.create 16 in
    Array.iteri
      (fun i result ->
        match work.(i) with
        | _, Some key, _ ->
            (match result with
            | Ok text -> Cache.put t.cache key text
            | Error _ -> ());
            Hashtbl.replace by_key key result
        | slot, None, _ -> Hashtbl.replace by_slot slot result)
      results;
    let lost ~id = error t ~id "internal error: result lost" in
    Array.mapi
      (fun i a ->
        match a with
        | Done reply | Stop reply -> reply
        | Miss (id, Some key, _) -> (
            match Hashtbl.find_opt by_key key with
            | Some result -> respond t ~id result
            | None -> lost ~id)
        | Miss (id, None, _) -> (
            match Hashtbl.find_opt by_slot i with
            | Some result -> respond t ~id result
            | None -> lost ~id))
      admitted
  end

(* admission: count the request, check its deadline, then answer it,
   look it up in the cache, or defer its compute to [resolve] *)
let rec admit t ~received ~in_batch (env : Codec.envelope) =
  Metrics.inc t.c_requests;
  match check_deadline t ~received env with
  | Some reply -> Done reply
  | None -> (
      let id = env.Codec.id in
      match env.Codec.req with
      | Codec.Stats ->
          Done (Codec.Json (Codec.ok_response ~id (stats_payload t)))
      | Codec.Shutdown ->
          if in_batch then
            Done (error t ~id "shutdown is not allowed inside a batch")
          else
            Stop
              (Codec.Json
                 (Codec.ok_response ~id (J.Obj [ ("shutdown", J.Bool true) ])))
      | Codec.Batch _ when in_batch ->
          Done (error t ~id "batches do not nest")
      | Codec.Batch envs ->
          (* the members are admitted and resolved here, in the caller's
             admission pass; the result splices their reply texts *)
          Metrics.inc t.c_batches;
          let members =
            Array.of_list (List.map (admit t ~received ~in_batch:true) envs)
          in
          Done (Codec.Responses (id, Array.to_list (resolve t members)))
      | req -> (
          match computable req with
          | None -> Done (error t ~id "unsupported request")
          | Some ((Some key as k), compute) -> (
              match Cache.find t.cache key with
              | Some text -> Done (Codec.Payload (id, text))
              | None -> Miss (id, k, compute))
          | Some (None, compute) -> Miss (id, None, compute)))

let is_stop = function Stop _ -> true | Done _ | Miss _ -> false

let serve_reply t ?received (env : Codec.envelope) =
  let received = match received with Some r -> r | None -> t.clock () in
  match admit t ~received ~in_batch:false env with
  | Done reply -> (reply, false)
  | Stop reply -> (reply, true)
  | Miss (id, key, compute) ->
      (finish_miss t ~id ~key (run_compute compute), false)

(* a pipelined group: every member admitted in order, then one resolve
   pass; a frame that does not parse is answered in its slot *)
let serve_replies t ?received jsons =
  let received = match received with Some r -> r | None -> t.clock () in
  let admitted =
    Array.of_list
      (List.map
         (fun json ->
           match Codec.request_of_json json with
           | Ok env -> admit t ~received ~in_batch:false env
           | Error (id, msg) -> Done (error t ~id msg))
         jsons)
  in
  (Array.to_list (resolve t admitted), Array.exists is_stop admitted)

let serve_json_many t ?received jsons =
  let replies, stop = serve_replies t ?received jsons in
  (List.map Codec.json_of_reply replies, stop)
