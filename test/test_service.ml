(* The mopcd service stack, transport layer by transport layer: frame
   codec (roundtrip, truncation, garbage headers, nonblocking decode-
   ahead), striped LRU decision cache (hit/miss/eviction accounting,
   per-stripe isolation under concurrent workers, snapshot/restore),
   disk persistence, and the request engine (canonical cache keying,
   deadline admission with an injected clock, malformed requests
   answered — never raised — batch and pipelined-group responses
   byte-identical for every job count). The edge suite drives the real
   daemon binary: kill -9 cycles, pipelining, TCP, warm restarts. *)

module J = Mo_obs.Jsonb
module Codec = Mo_service.Codec
module Cache = Mo_service.Cache
module Engine = Mo_service.Engine
module Persist = Mo_service.Persist

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let pred = Mo_core.Parse.predicate_exn
let causal = "x.s < y.s & y.r < x.r"
let fifo = "x.s < y.s & y.r < x.r & src(x) = src(y)"

(* ---- framing ---- *)

let with_pipe f =
  let rd, wr = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close rd with Unix.Unix_error _ -> ());
      try Unix.close wr with Unix.Unix_error _ -> ())
    (fun () -> f rd wr)

let test_frame_roundtrip () =
  with_pipe (fun rd wr ->
      let docs =
        [
          J.Obj [ ("id", J.Int 1); ("op", J.String "stats") ];
          J.Obj [ ("id", J.Int 2); ("pred", J.String causal) ];
          J.List [ J.Int 1; J.Null; J.String "x\ny" ];
        ]
      in
      List.iter (Codec.write_frame wr) docs;
      Unix.close wr;
      let r = Codec.reader rd in
      List.iter
        (fun doc ->
          match Codec.read_frame r with
          | Ok (Some got) ->
              check_string "frame" (J.to_string doc) (J.to_string got)
          | Ok None -> Alcotest.fail "premature end of stream"
          | Error e -> Alcotest.fail e)
        docs;
      match Codec.read_frame r with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "phantom frame"
      | Error e -> Alcotest.fail ("clean EOF reported as: " ^ e))

let write_all fd s =
  ignore (Unix.write_substring fd s 0 (String.length s))

let expect_frame_error name text =
  with_pipe (fun rd wr ->
      write_all wr text;
      Unix.close wr;
      match Codec.read_frame (Codec.reader rd) with
      | Error _ -> ()
      | Ok None -> Alcotest.fail (name ^ ": reported clean EOF")
      | Ok (Some _) -> Alcotest.fail (name ^ ": accepted"))

let test_frame_malformed () =
  expect_frame_error "garbage header" "notanumber\n{}\n";
  expect_frame_error "negative length" "-4\n{}\n";
  expect_frame_error "truncated payload" "100\n{\"id\":1}";
  expect_frame_error "bad json" "9\nnot json!\n";
  expect_frame_error "unterminated header" "123";
  (* an oversized declared length is rejected from the header alone *)
  expect_frame_error "oversized frame"
    (string_of_int (Codec.default_max_frame + 1) ^ "\n")

let test_frame_max_len () =
  with_pipe (fun rd wr ->
      let doc = J.Obj [ ("blob", J.String (String.make 64 'a')) ] in
      write_all wr (Codec.encode_frame doc);
      Unix.close wr;
      match Codec.read_frame ~max_len:16 (Codec.reader rd) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "frame above max_len accepted")

(* the decode-ahead primitive: partial frames never block and never
   consume, buffered whole frames come out without touching the fd *)
let test_frame_nonblock () =
  with_pipe (fun rd wr ->
      let r = Codec.reader rd in
      check_bool "empty pipe: nothing" true
        (Codec.read_frame_nonblock r = `Nothing);
      let doc = J.Obj [ ("id", J.Int 1) ] in
      let s = Codec.encode_frame doc in
      write_all wr (String.sub s 0 3);
      check_bool "partial frame: nothing (and no block)" true
        (Codec.read_frame_nonblock r = `Nothing);
      write_all wr (String.sub s 3 (String.length s - 3));
      (* a second whole frame arrives in the same flight *)
      write_all wr s;
      (match Codec.read_frame_nonblock r with
      | `Frame got ->
          check_string "frame 1" (J.to_string doc) (J.to_string got)
      | _ -> Alcotest.fail "complete frame not parsed");
      (* the pipelined frame is already buffered: parsed with no read *)
      (match Codec.read_frame_nonblock r with
      | `Frame got ->
          check_string "frame 2" (J.to_string doc) (J.to_string got)
      | _ -> Alcotest.fail "buffered frame not parsed");
      Unix.close wr;
      check_bool "eof" true (Codec.read_frame_nonblock r = `Eof))

(* ---- the reply path: spliced payload frames and the writer ---- *)

(* every frame a writer flushes for [replies], read back off a pipe *)
let flushed w replies =
  with_pipe (fun rd wr ->
      List.iter (Codec.add_reply w) replies;
      Codec.flush wr w;
      Unix.close wr;
      let out = Buffer.create 4096 and b = Bytes.create 4096 in
      let rec drain () =
        match Unix.read rd b 0 4096 with
        | 0 -> Buffer.contents out
        | n ->
            Buffer.add_subbytes out b 0 n;
            drain ()
      in
      drain ())

(* the bytes the tree emitter gives the same replies *)
let encoded replies =
  String.concat ""
    (List.map (fun r -> Codec.encode_frame (Codec.json_of_reply r)) replies)

let splice_ids = [ 0; 9; 10; max_int; -1; min_int ]

(* every cacheable payload kind over the catalog: classify, witness and
   lattice of each entry, implies and minimize of each entry with the
   next *)
let catalog_payloads =
  lazy
    (let preds =
       Array.of_list
         (List.map (fun (e : Mo_core.Catalog.entry) -> e.pred)
            Mo_core.Catalog.all)
     in
     let n = Array.length preds in
     List.concat
       (List.init n (fun i ->
            let p = preds.(i) and q = preds.((i + 1) mod n) in
            [
              Codec.classify_payload p;
              Codec.witness_payload p;
              Codec.lattice_payload p;
              Codec.implies_payload p q;
              Codec.minimize_payload [ p; q ];
            ])))

(* (a) a spliced frame is byte for byte the tree emitter's frame *)
let test_splice_differential () =
  let w = Codec.writer () in
  List.iter
    (fun payload ->
      let text = J.to_string payload in
      List.iter
        (fun id ->
          let want = Codec.encode_frame (Codec.ok_response ~id payload) in
          check_string
            (Printf.sprintf "id %d" id)
            want
            (flushed w [ Codec.Payload (id, text) ]))
        splice_ids)
    (Lazy.force catalog_payloads)

(* (b) one writer through groups that outgrow its initial 4 KiB, then
   shrink: each flush is exactly a fresh encoding of its group *)
let test_writer_reuse () =
  let payloads = Array.of_list (Lazy.force catalog_payloads) in
  let reply i =
    let payload = payloads.(i mod Array.length payloads) in
    if i mod 7 = 3 then Codec.Json (Codec.error_response ~id:i "no")
    else Codec.Payload (i, J.to_string payload)
  in
  let w = Codec.writer () in
  List.iter
    (fun (first, count) ->
      let group = List.init count (fun k -> reply (first + k)) in
      let want = encoded group in
      check_string (Printf.sprintf "group of %d" count) want (flushed w group))
    [ (0, 2); (2, 40); (42, 1); (43, 0); (44, 25); (69, 3); (72, 1) ]

(* the splice and its parse-back, over random float-free payloads and
   ids: bytes equal the tree emitter's, and the tree comes back whole *)
let rec gen_payload rng depth =
  match Prop.int_range 0 (if depth = 0 then 3 else 5) rng with
  | 0 -> J.Null
  | 1 -> J.Bool (Random.State.bool rng)
  | 2 ->
      J.Int
        (Prop.oneof [ 0; -1; max_int; min_int; Random.State.bits rng ] rng)
  | 3 ->
      J.String
        (String.init (Prop.int_range 0 8 rng) (fun _ ->
             Char.chr (Random.State.int rng 256)))
  | 4 ->
      J.List
        (List.init (Prop.int_range 0 3 rng) (fun _ ->
             gen_payload rng (depth - 1)))
  | _ ->
      J.Obj
        (List.init (Prop.int_range 0 3 rng) (fun i ->
             (string_of_int i, gen_payload rng (depth - 1))))

let test_splice_property =
  Prop.test ~count:2_000 ~seed:2401 ~name:"splice = tree emit"
    (Prop.pair
       (fun rng ->
         Prop.oneof splice_ids rng
         + if Random.State.bool rng then 0 else Random.State.bits rng)
       (fun rng -> gen_payload rng 3))
    ~pp:(fun (id, p) -> Printf.sprintf "id %d, %s" id (J.to_string p))
    (fun (id, payload) ->
      let reply = Codec.Payload (id, J.to_string payload) in
      let tree = Codec.ok_response ~id payload in
      Codec.json_of_reply reply = tree
      && flushed (Codec.writer ()) [ reply ] = Codec.encode_frame tree)

(* ---- cache ---- *)

let test_cache_lru () =
  let reg = Mo_obs.Metrics.create () in
  let c = Cache.create ~capacity:2 ~registry:reg () in
  check_bool "empty miss" true (Cache.find c "a" = None);
  Cache.put c "a" 1;
  Cache.put c "b" 2;
  check_bool "a hit" true (Cache.find c "a" = Some 1);
  (* "b" is now least-recently-used; inserting "c" evicts it *)
  Cache.put c "c" 3;
  check_bool "b evicted" true (Cache.find c "b" = None);
  check_bool "a survives" true (Cache.find c "a" = Some 1);
  check_bool "c present" true (Cache.find c "c" = Some 3);
  check_int "hits" 3 (Cache.hits c);
  check_int "misses" 2 (Cache.misses c);
  check_int "evictions" 1 (Cache.evictions c);
  check_int "size" 2 (Cache.size c);
  check_int "registry hits" 3
    (Option.value ~default:(-1) (Mo_obs.Metrics.value reg "svc.cache_hits"));
  check_int "registry evictions" 1
    (Option.value ~default:(-1)
       (Mo_obs.Metrics.value reg "svc.cache_evictions"))

let test_cache_disabled () =
  let c = Cache.create ~capacity:0 () in
  Cache.put c "a" 1;
  check_bool "nothing stored" true (Cache.find c "a" = None);
  check_int "size" 0 (Cache.size c);
  check_int "misses" 1 (Cache.misses c)

(* the digest → stripe map is Hashtbl.hash mod nstripes (deterministic
   on strings), so a test can bin keys exactly as the cache will *)
let stripe_of key nstripes = Hashtbl.hash key mod nstripes

let test_cache_striping () =
  let reg = Mo_obs.Metrics.create () in
  let c = Cache.create ~capacity:64 ~stripes:4 ~registry:reg () in
  check_int "nstripes" 4 (Cache.nstripes c);
  let key i = Printf.sprintf "digest-%d" i in
  for i = 0 to 39 do
    Cache.put c (key i) i
  done;
  for i = 0 to 39 do
    check_bool "resident" true (Cache.find c (key i) = Some i)
  done;
  check_int "size" 40 (Cache.size c);
  check_int "hits" 40 (Cache.hits c);
  check_int "misses" 0 (Cache.misses c);
  let stats = Cache.stripe_stats c in
  check_int "stripe stats per stripe" 4 (Array.length stats);
  check_int "stripe sizes sum to size" 40
    (Array.fold_left (fun a s -> a + s.Cache.size) 0 stats);
  check_int "stripe hits sum to hits" 40
    (Array.fold_left (fun a s -> a + s.Cache.hits) 0 stats);
  check_bool "traffic spreads over stripes" true
    (Array.fold_left (fun a s -> a + if s.Cache.size > 0 then 1 else 0) 0 stats
    >= 2);
  (* each stripe saw exactly its own keys' traffic *)
  Array.iteri
    (fun s st ->
      let mine = ref 0 in
      for i = 0 to 39 do
        if stripe_of (key i) 4 = s then incr mine
      done;
      check_int (Printf.sprintf "stripe %d size" s) !mine st.Cache.size)
    stats

(* concurrent workers on distinct digests, binned so each worker's keys
   live on its own stripe: per-stripe counters come out exact — the
   evidence that distinct-digest traffic never serializes (or leaks)
   across stripes. Deterministic for any job count. *)
let test_cache_striping_concurrent () =
  let nstripes = 4 and keys_per = 8 and rounds = 10 in
  let reg = Mo_obs.Metrics.create () in
  let c =
    Cache.create ~capacity:400 ~stripes:nstripes ~registry:reg ()
  in
  let by_stripe = Array.make nstripes [] in
  let k = ref 0 in
  while Array.exists (fun l -> List.length l < keys_per) by_stripe do
    let key = Printf.sprintf "digest-%d" !k in
    incr k;
    let s = stripe_of key nstripes in
    if List.length by_stripe.(s) < keys_per then
      by_stripe.(s) <- key :: by_stripe.(s)
  done;
  let w = Mo_par.Workers.create ~jobs:nstripes in
  Array.iter
    (fun keys ->
      Mo_par.Workers.submit w (fun () ->
          for _ = 1 to rounds do
            List.iter
              (fun key ->
                match Cache.find c key with
                | None -> Cache.put c key 0
                | Some _ -> ())
              keys
          done))
    by_stripe;
  Mo_par.Workers.shutdown w;
  Array.iteri
    (fun s st ->
      check_int (Printf.sprintf "stripe %d ops" s) (keys_per * rounds)
        (st.Cache.hits + st.Cache.misses);
      check_int (Printf.sprintf "stripe %d misses" s) keys_per
        st.Cache.misses;
      check_int (Printf.sprintf "stripe %d size" s) keys_per st.Cache.size)
    (Cache.stripe_stats c);
  check_int "aggregate hits" (nstripes * keys_per * (rounds - 1))
    (Cache.hits c);
  check_int "aggregate misses" (nstripes * keys_per) (Cache.misses c);
  check_int "aggregate size" (nstripes * keys_per) (Cache.size c)

let test_cache_snapshot_restore () =
  let c = Cache.create ~capacity:3 () in
  Cache.put c "a" 1;
  Cache.put c "b" 2;
  Cache.put c "c" 3;
  (* touch "a": recency is now a (MRU), c, b (LRU) *)
  ignore (Cache.find c "a");
  let snap = Cache.snapshot c in
  check_int "snapshot covers the residents" 3 (List.length snap);
  check_string "LRU first" "b" (fst (List.hd snap));
  let c2 = Cache.create ~capacity:3 () in
  check_int "restored" 3 (Cache.restore c2 snap);
  check_int "loaded" 3 (Cache.loaded c2);
  check_int "restore counts no hits" 0 (Cache.hits c2);
  check_int "restore counts no misses" 0 (Cache.misses c2);
  (* recency was reproduced: a new entry evicts "b", the old LRU *)
  Cache.put c2 "d" 4;
  check_bool "old LRU evicted" true (Cache.find c2 "b" = None);
  check_bool "old MRU kept" true (Cache.find c2 "a" = Some 1);
  check_bool "middle kept" true (Cache.find c2 "c" = Some 3);
  (* restoring into a smaller cache keeps the most recent entries *)
  let c3 = Cache.create ~capacity:2 () in
  ignore (Cache.restore c3 snap);
  check_int "overflow evicted" 1 (Cache.evictions c3);
  check_bool "LRU dropped on overflow" true (Cache.find c3 "b" = None);
  check_bool "MRU survives overflow" true (Cache.find c3 "a" = Some 1)

(* entry-age accounting under an injected clock: ages come straight off
   the LRU recency list (stamp order = recency order), min at the MRU
   head, max at the LRU tail, median in between; a hit refreshes the
   stamp *)
let test_cache_age_stats () =
  let now = ref 100. in
  let c = Cache.create ~capacity:8 ~clock:(fun () -> !now) () in
  let ages () =
    let s = (Cache.stripe_stats c).(0) in
    (s.Cache.age_min_s, s.Cache.age_median_s, s.Cache.age_max_s)
  in
  check_bool "empty stripe reports zero ages" true (ages () = (0., 0., 0.));
  Cache.put c "a" 1;
  now := 110.;
  Cache.put c "b" 2;
  now := 130.;
  Cache.put c "c" 3;
  now := 140.;
  (* ages now: c = 10 (MRU), b = 30, a = 40 (LRU) *)
  check_bool "min/median/max in recency order" true (ages () = (10., 30., 40.));
  ignore (Cache.find c "a");
  (* the hit restamped "a": 0 (MRU), c = 10, b = 30 *)
  check_bool "a hit refreshes the stamp" true (ages () = (0., 10., 30.));
  Cache.put c "d" 4;
  (* even population: d = 0, a = 0, c = 10, b = 30 → median (0+10)/2 *)
  check_bool "even median is the middle mean" true (ages () = (0., 5., 30.))

(* ---- persistence ---- *)

let test_persist_roundtrip () =
  let path = Filename.temp_file "mo-persist" ".json" in
  let entries =
    [
      ("c:abc", {|{"verdict":"implementable"}|});
      ("w:def", "null");
      ("i:a:b", "[1,true]");
    ]
  in
  Persist.save ~path entries;
  (match Persist.load ~path with
  | Ok (Some got) ->
      check_int "entries survive" 3 (List.length got);
      List.iter2
        (fun (k1, v1) (k2, v2) ->
          check_string "key" k1 k2;
          check_string "payload" v1 v2)
        entries got
  | Ok None -> Alcotest.fail "snapshot reported missing"
  | Error e -> Alcotest.fail e);
  (* saving over an existing snapshot replaces it atomically *)
  Persist.save ~path [ ("only", "7") ];
  (match Persist.load ~path with
  | Ok (Some [ ("only", "7") ]) -> ()
  | _ -> Alcotest.fail "second save did not replace the snapshot");
  Sys.remove path;
  check_bool "missing file is a cold start, not an error" true
    (Persist.load ~path = Ok None);
  (* corrupt and wrong-version snapshots are errors, never crashes *)
  let write s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  write "{not json";
  check_bool "corrupt snapshot is an error" true
    (Result.is_error (Persist.load ~path));
  write "{\"version\":99,\"entries\":[]}";
  check_bool "wrong version is an error" true
    (Result.is_error (Persist.load ~path));
  write "{\"version\":1,\"entries\":[]}";
  check_bool "a version-1 snapshot is refused" true
    (Result.is_error (Persist.load ~path));
  write "{\"version\":2,\"entries\":[[1,2]]}";
  check_bool "malformed entry is an error" true
    (Result.is_error (Persist.load ~path));
  Sys.remove path

(* ---- engine ---- *)

let envelope ?deadline_ms ?(id = 1) req =
  { Codec.id; deadline_ms; req }

let ok_result resp =
  match Codec.result_of_response resp with
  | Ok payload -> payload
  | Error e -> Alcotest.fail ("error response: " ^ e)

(* the engine's replies as the trees a client reads off the wire *)
let handle t ?received env =
  Codec.json_of_reply (fst (Engine.serve_reply t ?received env))

let serve_group t jsons =
  let replies, stop = Engine.serve_replies t jsons in
  (List.map Codec.json_of_reply replies, stop)

let serve_json t json =
  match serve_group t [ json ] with
  | [ resp ], stop -> (resp, stop)
  | _ -> Alcotest.fail "one request, not one response"

let handle_json t json = fst (serve_json t json)

let serve_many t envs = serve_group t (List.map Codec.request_to_json envs)

let field name = function
  | J.Obj fields -> List.assoc name fields
  | _ -> Alcotest.fail "payload is not an object"

let test_engine_cache_keying () =
  let t = Engine.create ~cache_capacity:16 () in
  let r1 =
    ok_result (handle t (envelope (Codec.Classify (pred causal))))
  in
  (* an alpha-renaming of the same predicate must hit the same entry
     and produce the byte-identical payload *)
  let r2 =
    ok_result
      (handle t
         (envelope ~id:2 (Codec.Classify (pred "a.s < b.s & b.r < a.r"))))
  in
  check_string "alpha-equivalent payloads" (J.to_string r1) (J.to_string r2);
  check_int "one miss" 1
    (Option.value ~default:(-1)
       (Mo_obs.Metrics.value (Engine.registry t) "svc.cache_misses"));
  check_int "one hit" 1
    (Option.value ~default:(-1)
       (Mo_obs.Metrics.value (Engine.registry t) "svc.cache_hits"));
  check_bool "implementable" true
    (field "implementable" r1 = J.Bool true);
  match field "class" r1 with
  | J.String c -> check_string "class" "tagged" c
  | _ -> Alcotest.fail "class is not a string"

let test_engine_malformed () =
  let t = Engine.create () in
  let reject name json =
    match handle_json t json with
    | J.Obj fields ->
        check_bool (name ^ ": ok=false") true
          (List.assoc "ok" fields = J.Bool false)
    | _ -> Alcotest.fail (name ^ ": response is not an object")
  in
  reject "not an object" (J.List []);
  reject "no op" (J.Obj [ ("id", J.Int 3) ]);
  reject "unknown op" (J.Obj [ ("id", J.Int 3); ("op", J.String "frob") ]);
  reject "bad predicate"
    (J.Obj
       [ ("id", J.Int 3); ("op", J.String "classify");
         ("pred", J.String "x.s <") ]);
  reject "implies missing arg"
    (J.Obj
       [ ("id", J.Int 3); ("op", J.String "implies");
         ("pred", J.String causal) ])

let test_engine_deadline () =
  let now = ref 0. in
  let t = Engine.create ~clock:(fun () -> !now) () in
  let req = Codec.Classify (pred causal) in
  (* a deadline in the future is admitted... *)
  (match
     Codec.result_of_response
       (handle t (envelope ~deadline_ms:50 req))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("live deadline rejected: " ^ e));
  (* ...but when 10 s pass between arrival and admission, a 50 ms
     deadline has lapsed: rejected without being computed, while its
     undeadlined batch sibling is unaffected *)
  now := 10.;
  let batch =
    Codec.Batch
      [ envelope ~id:7 ~deadline_ms:50 req; envelope ~id:8 req ]
  in
  match ok_result (handle t ~received:0. (envelope ~id:9 batch)) with
  | payload -> (
      match field "responses" payload with
      | J.List [ first; second ] ->
          (match Codec.result_of_response first with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "expired deadline admitted");
          (match Codec.result_of_response second with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("undeadlined sibling failed: " ^ e));
          check_int "deadline counter" 1
            (Option.value ~default:(-1)
               (Mo_obs.Metrics.value (Engine.registry t)
                  "svc.deadline_expired"))
      | _ -> Alcotest.fail "batch did not return two responses")

let batch_workload () =
  let preds =
    [
      causal; fifo; "a.s < b.s & b.r < a.r" (* causal, renamed *);
      "x.s < y.r"; "x.r < x.s"; "x.s < y.r & y.s < x.r";
    ]
  in
  List.concat_map
    (fun p ->
      [
        envelope ~id:0 (Codec.Classify (pred p));
        envelope ~id:0 (Codec.Witness (pred p));
      ])
    preds
  @ [
      envelope ~id:0 (Codec.Implies (pred fifo, pred causal));
      envelope ~id:0 (Codec.Minimize [ pred fifo; pred causal ]);
    ]
  |> List.mapi (fun i e -> { e with Codec.id = i + 1 })

let run_batch ~jobs =
  let pool = Mo_par.Pool.create ~jobs () in
  (* a frozen clock: cache entry ages are part of the stats payload and
     must not leak wall time into the byte-identity check *)
  let t = Engine.create ~pool ~clock:(fun () -> 0.) () in
  let resp =
    handle t (envelope ~id:99 (Codec.Batch (batch_workload ())))
  in
  (J.to_string resp, Engine.cache_stats t)

let test_batch_determinism () =
  let r1, s1 = run_batch ~jobs:1 in
  let r2, s2 = run_batch ~jobs:2 in
  let r4, s4 = run_batch ~jobs:4 in
  check_string "jobs 1 = jobs 2" r1 r2;
  check_string "jobs 1 = jobs 4" r1 r4;
  (* hit/miss accounting is part of the contract, not just payloads *)
  check_string "stats jobs 1 = jobs 2" (J.to_string s1) (J.to_string s2);
  check_string "stats jobs 1 = jobs 4" (J.to_string s1) (J.to_string s4)

(* pipelined groups: responses byte-identical, slot for slot, to
   serving the same stream one frame at a time — for every job count *)
let test_pipelined_group () =
  let jsons =
    List.map Codec.request_to_json (batch_workload ())
    (* an unparsable member gets an error response in its slot *)
    @ [ J.Obj [ ("id", J.Int 99); ("op", J.String "frob") ] ]
  in
  let sequential =
    let t = Engine.create () in
    List.map (fun j -> fst (serve_json t j)) jsons
  in
  List.iter
    (fun jobs ->
      let t = Engine.create ~pool:(Mo_par.Pool.create ~jobs ()) () in
      let resps, stop = serve_group t jsons in
      check_bool "no shutdown in the group" false stop;
      check_int "one response per request" (List.length jsons)
        (List.length resps);
      List.iteri
        (fun i (a, b) ->
          check_string
            (Printf.sprintf "jobs %d slot %d" jobs i)
            (J.to_string a) (J.to_string b))
        (List.combine sequential resps))
    [ 1; 2; 4 ];
  (* a shutdown mid-group raises the stop flag but still answers every
     member, in order *)
  let t = Engine.create () in
  let group =
    [
      envelope ~id:1 (Codec.Classify (pred causal));
      envelope ~id:2 Codec.Shutdown;
      envelope ~id:3 (Codec.Classify (pred fifo));
    ]
  in
  let resps, stop = serve_many t group in
  check_bool "shutdown mid-group stops the server" true stop;
  check_int "everything answered" 3 (List.length resps);
  List.iteri
    (fun i resp ->
      match Codec.result_of_response resp with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "slot %d: %s" i e))
    resps

(* snapshot → restore: the warm engine answers from the table, with the
   byte-identical payload and no recompute *)
let test_engine_warm_restart () =
  let t1 = Engine.create () in
  ignore (handle t1 (envelope (Codec.Classify (pred causal))));
  ignore (handle t1 (envelope ~id:2 (Codec.Witness (pred fifo))));
  let snap = Engine.snapshot t1 in
  check_int "snapshot covers both decisions" 2 (List.length snap);
  let t2 = Engine.create () in
  check_int "restored" 2 (Engine.restore t2 snap);
  let r1 =
    ok_result
      (handle t1 (envelope ~id:3 (Codec.Classify (pred causal))))
  in
  let r2 =
    ok_result
      (handle t2 (envelope ~id:3 (Codec.Classify (pred causal))))
  in
  check_string "warm payload byte-identical" (J.to_string r1)
    (J.to_string r2);
  check_int "first warm query is a hit" 1
    (Option.value ~default:(-1)
       (Mo_obs.Metrics.value (Engine.registry t2) "svc.cache_hits"));
  check_int "nothing recomputed" 0
    (Option.value ~default:(-1)
       (Mo_obs.Metrics.value (Engine.registry t2) "svc.cache_misses"));
  (* the stats payload says how warm this instance started *)
  let stats = ok_result (handle t2 (envelope ~id:4 Codec.Stats)) in
  match field "cache" stats with
  | J.Obj fields ->
      check_bool "stats reports loaded entries" true
        (List.assoc "loaded" fields = J.Int 2)
  | _ -> Alcotest.fail "stats payload lacks a cache object"

let test_shutdown_semantics () =
  let t = Engine.create () in
  (* a top-level shutdown is acknowledged and raises the stop flag *)
  let resp, stop =
    serve_json t
      (Codec.request_to_json (envelope ~id:5 Codec.Shutdown))
  in
  check_bool "top-level shutdown stops the server" true stop;
  check_bool "shutdown acknowledged" true
    (field "shutdown" (ok_result resp) = J.Bool true);
  (* nested in a batch it is an error and must NOT stop the server *)
  let resp, stop =
    serve_json t
      (Codec.request_to_json
         (envelope ~id:6 (Codec.Batch [ envelope ~id:7 Codec.Shutdown ])))
  in
  check_bool "batched shutdown does not stop the server" false stop;
  (match field "responses" (ok_result resp) with
  | J.List [ member ] -> (
      match Codec.result_of_response member with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "shutdown inside a batch was accepted")
  | _ -> Alcotest.fail "batch did not return one response");
  (* ordinary requests report no shutdown *)
  let _, stop =
    serve_json t
      (Codec.request_to_json (envelope ~id:8 Codec.Stats))
  in
  check_bool "stats does not stop the server" false stop

let test_payload_shapes () =
  let t = Engine.create () in
  let imp =
    ok_result
      (handle t
         (envelope (Codec.Implies (pred fifo, pred causal))))
  in
  (* B_fifo adds a guard to B_causal's cycle, so B_fifo ⟹ B_causal
     (and X_causal ⊆ X_fifo), but not conversely *)
  check_bool "fifo pattern implies causal pattern" true
    (field "forward" imp = J.Bool true);
  check_bool "converse fails" true (field "backward" imp = J.Bool false);
  let wit =
    ok_result (handle t (envelope ~id:2 (Codec.Witness (pred causal))))
  in
  check_bool "causal has a witness" true (field "witness" wit = J.Bool true);
  let min_ =
    ok_result
      (handle t
         (envelope ~id:3 (Codec.Minimize [ pred fifo; pred causal ])))
  in
  (match field "kept" min_ with
  | J.List kept -> check_bool "minimize kept >= 1" true (List.length kept >= 1)
  | _ -> Alcotest.fail "kept is not a list");
  let stats = ok_result (handle t (envelope ~id:4 Codec.Stats)) in
  match field "cache" stats with
  | J.Obj fields -> check_bool "cache stats" true (List.mem_assoc "hits" fields)
  | _ -> Alcotest.fail "stats payload lacks a cache object"

let test_monitor_op () =
  let t = Engine.create ~cache_capacity:16 () in
  let trace good =
    if good then "send 0 0 1\nsend 1 0 1\ndeliver 0\ndeliver 1\n"
    else "send 0 0 1\nsend 1 0 1\ndeliver 1\ndeliver 0\n"
  in
  let monitor ?id text =
    handle t (envelope ?id (Codec.Monitor (pred fifo, text, None)))
  in
  let clean = ok_result (monitor (trace true)) in
  check_bool "clean trace: no violation" true
    (field "violation" clean = J.Null);
  check_bool "events counted" true (field "events" clean = J.Int 4);
  let bad = ok_result (monitor ~id:2 (trace false)) in
  (match field "violation" bad with
  | J.Obj fields ->
      check_bool "violation at the completing delivery" true
        (List.assoc "at" fields = J.Int 2);
      check_bool "witness names both messages" true
        (List.assoc "witness" fields = J.List [ J.Int 0; J.Int 1 ])
  | _ -> Alcotest.fail "violating trace reported null");
  (* prefixes are fine: pending messages just show up in the count *)
  let prefix = ok_result (monitor ~id:3 "send 0 0 1\n") in
  check_bool "pending" true (field "pending" prefix = J.Int 1);
  (* malformed traces are client errors with the parser's message, and
     monitor responses are never cached (same trace, zero hits) *)
  (match
     Codec.result_of_response (monitor ~id:4 "deliver 7\n")
   with
  | Error msg ->
      check_bool "bad trace names the line" true
        (String.length msg > 0 && msg.[0] <> 'i')
  | Ok _ -> Alcotest.fail "malformed trace accepted");
  ignore (monitor ~id:5 (trace false));
  check_int "monitor results are uncached" 0
    (Option.value ~default:(-1)
       (Mo_obs.Metrics.value (Engine.registry t) "svc.cache_hits"))

(* the lattice op: full placement payload, cached under the canonical
   digest so an alpha-renaming answers from the table *)
let test_lattice_op () =
  let t = Engine.create ~cache_capacity:16 () in
  let q ?id ?kmax p =
    handle t (envelope ?id (Codec.Lattice (pred p, kmax)))
  in
  let payload = ok_result (q fifo) in
  check_bool "payload carries the default kmax" true
    (field "kmax" payload = J.Int 3);
  check_bool "standard-plus universe" true
    (field "runs" payload = J.Int 125_768);
  (* the test's fifo forbids src-overtake only (no dst clause), so over
     realizable runs its spec collapses onto the causal tier, not the
     per-channel fifo-11 one *)
  check_bool "fifo spec members pinned" true
    (field "spec_members" payload = J.Int 63_364);
  let models =
    match field "models" payload with
    | J.List l -> l
    | _ -> Alcotest.fail "models is not a list"
  in
  check_int "all nine lattice points placed" 9 (List.length models);
  let row name =
    match
      List.find_opt
        (function
          | J.Obj fs -> List.assoc_opt "model" fs = Some (J.String name)
          | _ -> false)
        models
    with
    | Some (J.Obj fs) -> fs
    | _ -> Alcotest.fail ("no placement row for " ^ name)
  in
  check_bool "fifo-1n coincides with the spec" true
    (List.assoc "model_in_spec" (row "fifo-1n") = J.Bool true
    && List.assoc "spec_in_model" (row "fifo-1n") = J.Bool true);
  check_bool "fifo-11 admits runs outside the spec" true
    (List.assoc "model_in_spec" (row "fifo-11") = J.Bool false
    && List.assoc "spec_in_model" (row "fifo-11") = J.Bool true);
  check_bool "async is never inside a proper spec" true
    (List.assoc "model_in_spec" (row "async") = J.Bool false);
  check_bool "rsc members pinned" true
    (List.assoc "members" (row "rsc") = J.Int 41_432);
  check_bool "sufficient extremes are the one-sided fifos" true
    (field "sufficient" payload
    = J.List [ J.String "fifo-1n"; J.String "fifo-n1" ]);
  check_bool "guaranteed extreme is fifo-nn" true
    (field "guarantees" payload = J.List [ J.String "fifo-nn" ]);
  (* an alpha-renaming of the same spec: identical payload, zero compute *)
  let renamed =
    ok_result (q ~id:2 "a.s < b.s & b.r < a.r & src(a) = src(b)")
  in
  check_string "alpha-renaming answers byte-identically"
    (J.to_string payload) (J.to_string renamed);
  check_int "second placement came from the cache" 1
    (Option.value ~default:(-1)
       (Mo_obs.Metrics.value (Engine.registry t) "svc.cache_hits"));
  (* kmax rides the request: a wider sweep adds exactly the extra
     k-synchronous rows and does NOT collide with the kmax-3 entry *)
  let wide = ok_result (q ~id:3 ~kmax:5 fifo) in
  check_bool "payload echoes the requested kmax" true
    (field "kmax" wide = J.Int 5);
  (match field "models" wide with
  | J.List l -> check_int "kmax 5 sweeps eleven points" 11 (List.length l)
  | _ -> Alcotest.fail "kmax-5 models is not a list");
  check_int "kmax variants are cached separately (both were misses)" 1
    (Option.value ~default:(-1)
       (Mo_obs.Metrics.value (Engine.registry t) "svc.cache_hits"));
  let wide2 = ok_result (q ~id:4 ~kmax:5 fifo) in
  check_string "kmax-5 repeat answers byte-identically from the cache"
    (J.to_string wide) (J.to_string wide2);
  check_int "kmax-5 repeat hit its own entry" 2
    (Option.value ~default:(-1)
       (Mo_obs.Metrics.value (Engine.registry t) "svc.cache_hits"));
  (* wire round-trip and validation of the kmax field *)
  (match
     Codec.request_of_json
       (Codec.request_to_json
          { Codec.id = 9; deadline_ms = None;
            req = Codec.Lattice (pred fifo, Some 5) })
   with
  | Ok { Codec.req = Codec.Lattice (_, Some 5); _ } -> ()
  | _ -> Alcotest.fail "kmax did not survive the wire round-trip");
  match
    Codec.request_of_json
      (J.Obj
         [ ("id", J.Int 10); ("op", J.String "lattice");
           ("pred", J.String fifo); ("kmax", J.Int 0) ])
  with
  | Error (10, _) -> ()
  | _ -> Alcotest.fail "kmax 0 was not rejected"

(* a hostile kmax is refused before any placement runs: at parse time on
   the wire, and in the payload builder for requests built in-process *)
let test_lattice_kmax_bound () =
  let t = Engine.create ~cache_capacity:16 () in
  let cache_size () =
    let stats = ok_result (handle t (envelope Codec.Stats)) in
    match field "cache" stats with
    | J.Obj fs -> List.assoc "size" fs
    | _ -> Alcotest.fail "cache stats shape"
  in
  List.iter
    (fun kmax ->
      (match
         Codec.result_of_response
           (handle t
              (envelope ~id:2 (Codec.Lattice (pred fifo, Some kmax))))
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "kmax %d was served" kmax));
      match
        Codec.request_of_json
          (J.Obj
             [ ("id", J.Int 3); ("op", J.String "lattice");
               ("pred", J.String fifo); ("kmax", J.Int kmax) ])
      with
      | Error (3, _) -> ()
      | _ -> Alcotest.fail (Printf.sprintf "kmax %d parsed" kmax))
    [ Codec.max_kmax + 1; max_int ];
  check_bool "refused placements are not cached" true
    (cache_size () = J.Int 0);
  check_bool "the bound itself is served" true
    (field "kmax"
       (ok_result
          (handle t
             (envelope (Codec.Lattice (pred fifo, Some Codec.max_kmax)))))
    = J.Int Codec.max_kmax)

(* ---- one reply path: batches and snapshots spliced from text ---- *)

let reply_ids = [ 0; -1; max_int; min_int ]

let catalog_preds =
  lazy
    (Array.of_list
       (List.map (fun (e : Mo_core.Catalog.entry) -> e.pred)
          Mo_core.Catalog.all))

(* a frozen clock: cache entry ages are part of the stats payload, and
   no deadline ever lapses *)
let frozen_engine () = Engine.create ~clock:(fun () -> 0.) ()

let fifo_overtake = "send 0 0 1\nsend 1 0 1\ndeliver 1\ndeliver 0\n"

(* one batch member of each kind: cacheable ops (hits or misses,
   depending on what the engine has seen), an uncached monitor, errors
   (a malformed trace, a kmax out of range), stats, a nested batch and a
   nested shutdown; every id extreme, and deadlines that never lapse *)
let gen_member rng =
  let preds = Lazy.force catalog_preds in
  let p () = preds.(Random.State.int rng (Array.length preds)) in
  let req =
    match Prop.int_range 0 10 rng with
    | 0 -> Codec.Classify (p ())
    | 1 -> Codec.Witness (p ())
    | 2 -> Codec.Implies (p (), p ())
    | 3 -> Codec.Minimize [ p (); p () ]
    (* one lattice key, so each engine places it once *)
    | 4 -> Codec.Lattice (pred fifo, None)
    | 5 -> Codec.Monitor (pred fifo, fifo_overtake, None)
    | 6 -> Codec.Monitor (pred fifo, "deliver 7\n", None)
    | 7 -> Codec.Lattice (pred fifo, Some 0)
    | 8 -> Codec.Stats
    | 9 -> Codec.Batch [ envelope ~id:5 Codec.Stats ]
    | _ -> Codec.Shutdown
  in
  {
    Codec.id = Prop.oneof (Random.State.bits rng :: reply_ids) rng;
    deadline_ms = Prop.oneof [ None; Some 0; Some 1_000 ] rng;
    req;
  }

(* a member's tree, from [twin] (an engine serving it on its own, where
   a hit and a miss give the same bytes), from the nesting rules, or —
   for stats, which counts this very batch — as the batch answered it *)
let expected_member twin (env : Codec.envelope) answered =
  match env.Codec.req with
  | Codec.Stats -> answered
  | Codec.Batch _ ->
      Codec.error_response ~id:env.Codec.id "batches do not nest"
  | Codec.Shutdown ->
      Codec.error_response ~id:env.Codec.id
        "shutdown is not allowed inside a batch"
  | _ -> handle twin env

(* the spliced batch frame equals the frame of the tree a client builds
   from the members' replies *)
let batch_bytes_ok t twin ~id members =
  let reply, stop =
    Engine.serve_reply t (envelope ~id (Codec.Batch members))
  in
  let answered =
    match field "responses" (ok_result (Codec.json_of_reply reply)) with
    | J.List l -> l
    | _ -> Alcotest.fail "responses is not a list"
  in
  let want =
    Codec.ok_response ~id
      (J.Obj
         [
           ( "responses",
             J.List (List.map2 (expected_member twin) members answered) );
         ])
  in
  (not stop)
  && (match reply with
     | Codec.Responses _ -> true
     | Codec.Payload _ | Codec.Json _ -> false)
  && flushed (Codec.writer ()) [ reply ] = Codec.encode_frame want

let test_batch_bytes () =
  let t = frozen_engine () and twin = frozen_engine () in
  ignore (handle t (envelope (Codec.Classify (pred causal))));
  let members =
    [
      envelope ~id:0 (Codec.Classify (pred "a.s < b.s & b.r < a.r"));
      envelope ~id:(-1) (Codec.Classify (pred fifo));
      envelope ~id:max_int (Codec.Witness (pred causal));
      envelope ~id:min_int (Codec.Witness (pred causal));
      envelope ~id:4 (Codec.Implies (pred fifo, pred causal));
      envelope ~id:5 (Codec.Minimize [ pred fifo; pred causal ]);
      envelope ~id:6 (Codec.Lattice (pred causal, Some 1));
      envelope ~id:7 (Codec.Monitor (pred fifo, fifo_overtake, None));
      envelope ~id:8 (Codec.Monitor (pred fifo, "deliver 7\n", None));
      envelope ~id:9 (Codec.Lattice (pred fifo, Some 0));
      envelope ~id:10 Codec.Stats;
      envelope ~id:11 (Codec.Batch [ envelope Codec.Stats ]);
      envelope ~id:12 Codec.Shutdown;
    ]
  in
  List.iter
    (fun id ->
      check_bool (Printf.sprintf "batch %d" id) true
        (batch_bytes_ok t twin ~id members);
      check_bool (Printf.sprintf "empty batch %d" id) true
        (batch_bytes_ok t twin ~id []))
    reply_ids;
  (* the renamed classify hits in the first batch; the seven cacheable
     successes of each later batch all hit *)
  check_int "hits" (1 + (3 * 7))
    (Option.value ~default:(-1)
       (Mo_obs.Metrics.value (Engine.registry t) "svc.cache_hits"))

let test_batch_bytes_property () =
  let t = frozen_engine () and twin = frozen_engine () in
  Prop.check ~count:80 ~seed:3001 ~name:"batch splice = tree emit"
    (Prop.pair
       (fun rng -> Prop.oneof (Random.State.bits rng :: reply_ids) rng)
       (Prop.list_of ~max:8 gen_member))
    ~pp:(fun (id, members) ->
      J.to_string
        (Codec.request_to_json (envelope ~id (Codec.Batch members))))
    (fun (id, members) -> batch_bytes_ok t twin ~id members)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* a --persist file is the text splice of the table; it equals the tree
   printer's file, and load then save reproduces it byte for byte *)
let test_snapshot_bytes () =
  let t = Engine.create () in
  let preds = Lazy.force catalog_preds in
  let rng = Random.State.make [| 3101 |] in
  let p () = preds.(Random.State.int rng (Array.length preds)) in
  List.iteri
    (fun id req -> ignore (handle t (envelope ~id req)))
    (List.concat
       (List.init 4 (fun _ ->
            [
              Codec.Classify (p ());
              Codec.Witness (p ());
              Codec.Implies (p (), p ());
              Codec.Minimize [ p (); p (); p () ];
            ]))
    @ [ Codec.Lattice (p (), Some 1); Codec.Lattice (p (), None) ]);
  let snap = Engine.snapshot t in
  List.iter
    (fun prefix ->
      check_bool ("resident " ^ prefix) true
        (List.exists (fun (k, _) -> String.starts_with ~prefix k) snap))
    [ "c:"; "w:"; "i:"; "m:"; "l:" ];
  let path = Filename.temp_file "mo-snap" ".json"
  and again = Filename.temp_file "mo-snap" ".json" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ path; again ])
    (fun () ->
      Persist.save ~path snap;
      let file = read_file path in
      let parse text =
        match J.of_string text with
        | Ok j -> j
        | Error e -> Alcotest.fail e
      in
      let tree =
        J.Obj
          [
            ("version", J.Int Persist.version);
            ( "entries",
              J.List
                (List.map (fun (k, text) -> J.List [ J.String k; parse text ])
                   snap) );
          ]
      in
      check_string "spliced file = tree-printed file"
        (J.to_string tree ^ "\n") file;
      match Persist.load ~path with
      | Ok (Some entries) ->
          check_bool "load gives the table back" true (entries = snap);
          Persist.save ~path:again entries;
          check_string "save (load file) = file" file (read_file again);
          let t2 = Engine.create () in
          check_int "restored" (List.length snap) (Engine.restore t2 entries);
          check_bool "a restored engine snapshots the same table" true
            (Engine.snapshot t2 = snap)
      | Ok None -> Alcotest.fail "snapshot reported missing"
      | Error e -> Alcotest.fail e)

(* svc.requests counts every top-level request and every batch member,
   an expired one as much as an admitted one *)
let test_request_count () =
  let now = ref 10. in
  let t = Engine.create ~clock:(fun () -> !now) () in
  let value name =
    Option.value ~default:(-1)
      (Mo_obs.Metrics.value (Engine.registry t) name)
  in
  let added serve =
    let r0 = value "svc.requests" and d0 = value "svc.deadline_expired" in
    ignore (serve ());
    (value "svc.requests" - r0, value "svc.deadline_expired" - d0)
  in
  let check_added = Alcotest.(check (pair int int)) in
  let req = Codec.Classify (pred causal) in
  let expired r = envelope ~id:7 ~deadline_ms:50 r in
  let batch =
    Codec.Batch [ envelope req; envelope Codec.Stats; envelope req ]
  in
  check_added "expired single" (1, 1)
    (added (fun () -> Engine.serve_reply t ~received:0. (expired req)));
  check_added "expired batch" (1, 1)
    (added (fun () -> Engine.serve_reply t ~received:0. (expired batch)));
  check_added "expired batch in a group" (1, 1)
    (added (fun () ->
         Engine.serve_replies t ~received:0.
           [ Codec.request_to_json (expired batch) ]));
  check_added "batch of three" (4, 0)
    (added (fun () -> Engine.serve_reply t (envelope batch)))

(* ---- the service edge: connect retry and crash-tolerant startup ---- *)

module Client = Mo_service.Client
module Server = Mo_service.Server

let tmp_sock tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "mo-%s-%d.sock" tag (Unix.getpid ()))

let rm path = try Unix.unlink path with Unix.Unix_error _ -> ()

let listener path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 8;
  fd

let astring_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* the retry loop is deterministic under an injected sleep: a server that
   comes up while the client is backing off (here: the sleep hook itself
   binds the socket, playing the part of a slow-accepting, restarting
   daemon) is reached on the next attempt, with the recorded backoff
   sequence exactly the capped doubling *)
let test_client_retry_backoff () =
  let path = tmp_sock "retry" in
  rm path;
  let sleeps = ref [] in
  let server = ref None in
  let sleep d =
    sleeps := d :: !sleeps;
    if List.length !sleeps = 2 then server := Some (listener path)
  in
  let retry =
    {
      Client.attempts = 5;
      base_delay_s = 0.05;
      max_delay_s = 0.2;
      connect_timeout_s = 5.;
    }
  in
  (match Client.connect ~retry ~sleep ~socket_path:path () with
  | Ok c -> Client.close c
  | Error e -> Alcotest.fail e);
  check_bool "two backoffs before the server came up" true
    (List.rev !sleeps = [ 0.05; 0.1 ]);
  (match !server with
  | Some fd -> Unix.close fd
  | None -> Alcotest.fail "sleep hook never ran");
  rm path;
  (* no server ever: every attempt is spent, the backoff caps, and the
     failure is a clear error — not a hang, not an exception *)
  let sleeps = ref [] in
  let retry = { retry with Client.attempts = 4; max_delay_s = 0.08 } in
  (match
     Client.connect ~retry ~sleep:(fun d -> sleeps := d :: !sleeps)
       ~socket_path:path ()
   with
  | Ok _ -> Alcotest.fail "connected to nothing"
  | Error e ->
      check_bool "error counts the attempts" true
        (astring_contains e "after 4 attempts"));
  check_bool "backoff doubles to the cap" true
    (List.rev !sleeps = [ 0.05; 0.08; 0.08 ]);
  (* a live server connects on the first try: no sleeps at all *)
  let fd = listener path in
  let sleeps = ref [] in
  (match
     Client.connect ~sleep:(fun d -> sleeps := d :: !sleeps)
       ~socket_path:path ()
   with
  | Ok c -> Client.close c
  | Error e -> Alcotest.fail e);
  check_bool "no backoff when the server is up" true (!sleeps = []);
  Unix.close fd;
  rm path

let test_remove_stale_socket () =
  let path = tmp_sock "stale" in
  rm path;
  (* nothing there: fine *)
  check_bool "missing path is ok" true (Server.remove_stale_socket path = Ok ());
  (* a live listener: refused, file untouched *)
  let fd = listener path in
  check_bool "live socket refused" true
    (Result.is_error (Server.remove_stale_socket path));
  check_bool "live socket not stolen" true (Sys.file_exists path);
  (* kill-9 corpse: the listener is gone but the file remains — probed
     stale and unlinked *)
  Unix.close fd;
  check_bool "corpse file still present" true (Sys.file_exists path);
  check_bool "stale socket removed" true
    (Server.remove_stale_socket path = Ok ());
  check_bool "file is gone" false (Sys.file_exists path);
  (* a regular file under the socket name is never unlinked *)
  let oc = open_out path in
  output_string oc "not a socket";
  close_out oc;
  (match Server.remove_stale_socket path with
  | Error e -> check_bool "says why" true (astring_contains e "not a socket")
  | Ok () -> Alcotest.fail "regular file accepted");
  check_bool "regular file preserved" true (Sys.file_exists path);
  rm path

(* the end-to-end smoke: daemon up, kill -9, the corpse socket file is
   left behind, a restarted daemon must come up on the same path and
   serve — then shut down cleanly, removing the file. The daemon is the
   real mopcd binary run as a subprocess ([Unix.fork] is off the table:
   the runtime forbids it once any domain has ever been spawned, and the
   batch-determinism test above spawns several; [create_process] uses
   posix_spawn and is fine). Readiness is the client's own retry loop —
   exactly what it exists for. *)
let mopcd_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "mopcd.exe"))

let spawn_daemon ?(jobs = 1) ?(extra = []) path =
  Unix.create_process mopcd_exe
    (Array.of_list
       ([
          "mopcd"; "--socket"; path; "--cache"; "16"; "--jobs";
          string_of_int jobs;
        ]
       @ extra))
    Unix.stdin Unix.stdout Unix.stderr

(* generous retry budget: the daemon may still be starting up (or, in
   the restart leg, still probing its predecessor's corpse) *)
let smoke_retry =
  {
    Client.attempts = 40;
    base_delay_s = 0.02;
    max_delay_s = 0.25;
    connect_timeout_s = 5.;
  }

let round_trip path =
  match Client.connect ~retry:smoke_retry ~socket_path:path () with
  | Error e -> Alcotest.fail ("connect: " ^ e)
  | Ok c ->
      let r = Client.call c Codec.Stats in
      Client.close c;
      (match r with
      | Ok (J.Obj fields) ->
          check_bool "stats has a cache section" true
            (List.mem_assoc "cache" fields)
      | Ok _ -> Alcotest.fail "stats payload shape"
      | Error e -> Alcotest.fail ("stats: " ^ e))

(* shut a daemon down via the protocol and reap it; SIGKILL on the way
   out if anything fails so a broken daemon cannot outlive its test *)
let graceful_shutdown ?(addr = None) pid path =
  let addr =
    match addr with Some a -> a | None -> Client.Uds path
  in
  (match Client.connect_addr ~retry:smoke_retry addr with
  | Error e ->
      Unix.kill pid Sys.sigkill;
      Alcotest.fail e
  | Ok c ->
      (match Client.call c Codec.Shutdown with
      | Ok _ -> ()
      | Error e ->
          Unix.kill pid Sys.sigkill;
          Alcotest.fail ("shutdown: " ^ e));
      Client.close c);
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> Alcotest.fail "daemon did not exit cleanly"

let test_kill9_restart_smoke () =
  let path = tmp_sock "kill9" in
  rm path;
  (* first daemon: up, serving *)
  let pid1 = spawn_daemon path in
  round_trip path;
  (* kill -9: no cleanup runs, the socket file becomes a corpse *)
  Unix.kill pid1 Sys.sigkill;
  ignore (Unix.waitpid [] pid1);
  check_bool "kill -9 leaves the socket file" true (Sys.file_exists path);
  (* second daemon on the same path: must detect the corpse and serve *)
  let pid2 = spawn_daemon path in
  round_trip path;
  (* graceful shutdown via the protocol; the file must be cleaned up *)
  graceful_shutdown pid2 path;
  check_bool "clean shutdown removes the socket file" false
    (Sys.file_exists path)

(* the fixed request mix every daemon-determinism check pipelines *)
let pipeline_reqs () =
  [
    Codec.Classify (pred causal);
    Codec.Witness (pred causal);
    Codec.Classify (pred fifo);
    Codec.Implies (pred fifo, pred causal);
    Codec.Minimize [ pred fifo; pred causal ];
    (* alpha-renaming of causal: must come back byte-identical *)
    Codec.Classify (pred "a.s < b.s & b.r < a.r");
  ]

let render_results rs =
  String.concat "\n"
    (List.map
       (function Ok j -> J.to_string j | Error e -> "error: " ^ e)
       rs)

(* pipelined responses must be byte-identical, slot for slot, to the
   same requests issued one call at a time on the same connection *)
let test_daemon_pipelining () =
  let path = tmp_sock "pipeline" in
  rm path;
  let pid = spawn_daemon ~jobs:2 path in
  (match Client.connect_addr ~retry:smoke_retry (Client.Uds path) with
  | Error e ->
      Unix.kill pid Sys.sigkill;
      Alcotest.fail e
  | Ok c ->
      let piped = Client.call_pipelined c (pipeline_reqs ()) in
      let sequential = List.map (Client.call c) (pipeline_reqs ()) in
      check_int "one response per request"
        (List.length (pipeline_reqs ()))
        (List.length piped);
      List.iteri
        (fun i (p, s) ->
          match (p, s) with
          | Ok p, Ok s ->
              check_string
                (Printf.sprintf "slot %d" i)
                (J.to_string s) (J.to_string p)
          | Error e, _ ->
              Alcotest.fail (Printf.sprintf "pipelined slot %d: %s" i e)
          | _, Error e ->
              Alcotest.fail (Printf.sprintf "sequential slot %d: %s" i e))
        (List.combine piped sequential);
      Client.close c);
  graceful_shutdown pid path

(* daemon determinism across the dispatch pool width: the same
   pipelined stream answered byte-identically at --jobs 1, 2 and 4 *)
let test_daemon_jobs_determinism () =
  let run jobs =
    let path = tmp_sock (Printf.sprintf "det%d" jobs) in
    rm path;
    let pid = spawn_daemon ~jobs path in
    let out =
      match Client.connect_addr ~retry:smoke_retry (Client.Uds path) with
      | Error e ->
          Unix.kill pid Sys.sigkill;
          Alcotest.fail e
      | Ok c ->
          let rs = Client.call_pipelined c (pipeline_reqs ()) in
          Client.close c;
          render_results rs
    in
    graceful_shutdown pid path;
    out
  in
  let r1 = run 1 in
  check_string "jobs 1 = jobs 2" r1 (run 2);
  check_string "jobs 1 = jobs 4" r1 (run 4)

(* the daemon answers a hostile kmax with an error at once, keeps
   serving the connection, and caches nothing *)
let test_daemon_kmax_bound () =
  let path = tmp_sock "kmax" in
  rm path;
  let pid = spawn_daemon path in
  (match Client.connect_addr ~retry:smoke_retry (Client.Uds path) with
  | Error e ->
      Unix.kill pid Sys.sigkill;
      Alcotest.fail e
  | Ok c ->
      List.iter
        (fun kmax ->
          match Client.call c (Codec.Lattice (pred fifo, Some kmax)) with
          | Error _ -> ()
          | Ok _ ->
              Alcotest.fail (Printf.sprintf "daemon served kmax %d" kmax))
        [ Codec.max_kmax + 1; max_int ];
      (match Client.call c (Codec.Classify (pred causal)) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("daemon stopped serving: " ^ e));
      (match Client.call c Codec.Stats with
      | Ok stats -> (
          match field "cache" stats with
          | J.Obj fs ->
              check_bool "only the classify was cached" true
                (List.assoc "size" fs = J.Int 1)
          | _ -> Alcotest.fail "cache stats shape")
      | Error e -> Alcotest.fail ("stats: " ^ e));
      Client.close c);
  graceful_shutdown pid path

(* an out-of-range integer in a predicate is an error reply, not a dead
   connection: the valid request pipelined behind it in the same write
   is answered, and so is the next one *)
let test_daemon_int_overflow () =
  let path = tmp_sock "overflow" in
  rm path;
  let pid = spawn_daemon path in
  round_trip path;
  let classify id p =
    J.Obj [ ("id", J.Int id); ("op", J.String "classify"); ("pred", J.String p) ]
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Fun.protect
       ~finally:(fun () -> Unix.close fd)
       (fun () ->
         Unix.connect fd (Unix.ADDR_UNIX path);
         let r = Codec.reader fd in
         let reply () =
           match Codec.read_frame r with
           | Ok (Some j) -> Codec.result_of_response j
           | Ok None -> Alcotest.fail "daemon closed the connection"
           | Error e -> Alcotest.fail e
         in
         let w = Codec.writer () in
         List.iter
           (fun j -> Codec.add_reply w (Codec.Json j))
           [
             classify 1 "x.s < y.r & color(x) = 99999999999999999999";
             classify 2 causal;
           ];
         Codec.flush fd w;
         (match reply () with
         | Error e ->
             check_string "overflow error"
               "cannot parse \"x.s < y.r & color(x) = \
                99999999999999999999\": integer literal out of range at \
                offset 23"
               e
         | Ok _ -> Alcotest.fail "overflow accepted");
         (match reply () with
         | Ok _ -> ()
         | Error e -> Alcotest.fail ("request behind the overflow: " ^ e));
         Codec.write_frame fd (classify 3 fifo);
         match reply () with
         | Ok _ -> ()
         | Error e -> Alcotest.fail ("next request: " ^ e))
   with e ->
     Unix.kill pid Sys.sigkill;
     ignore (Unix.waitpid [] pid);
     raise e);
  graceful_shutdown pid path

(* ---- TCP transport ---- *)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* spawn a TCP daemon on an ephemeral port and learn the port from its
   ready line: "mopcd: listening on 127.0.0.1:PORT (cache N, pid P)" *)
let spawn_daemon_tcp () =
  let rd, wr = Unix.pipe () in
  let pid =
    Unix.create_process mopcd_exe
      [| "mopcd"; "--tcp"; "127.0.0.1:0"; "--cache"; "16"; "--jobs"; "2" |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let buf = Buffer.create 80 in
  let b = Bytes.create 1 in
  let rec line () =
    match Unix.read rd b 0 1 with
    | 0 -> ()
    | _ ->
        if Bytes.get b 0 <> '\n' then begin
          Buffer.add_char buf (Bytes.get b 0);
          line ()
        end
  in
  line ();
  Unix.close rd;
  let s = Buffer.contents buf in
  match find_sub s " (" with
  | None ->
      Unix.kill pid Sys.sigkill;
      Alcotest.fail ("no ready line from the TCP daemon: " ^ s)
  | Some stop -> (
      let addr = String.sub s 0 stop in
      match String.rindex_opt addr ':' with
      | None ->
          Unix.kill pid Sys.sigkill;
          Alcotest.fail ("ready line has no port: " ^ s)
      | Some i -> (
          match
            int_of_string_opt
              (String.sub addr (i + 1) (String.length addr - i - 1))
          with
          | Some port -> (pid, port)
          | None ->
              Unix.kill pid Sys.sigkill;
              Alcotest.fail ("ready line has a bad port: " ^ s)))

let test_tcp_round_trip () =
  let pid, port = spawn_daemon_tcp () in
  let addr = Client.Tcp ("127.0.0.1", port) in
  (match Client.connect_addr ~retry:smoke_retry addr with
  | Error e ->
      Unix.kill pid Sys.sigkill;
      Alcotest.fail ("connect: " ^ e)
  | Ok c ->
      (* sequential and pipelined round-trips over the same stream *)
      (match Client.call c (Codec.Classify (pred causal)) with
      | Ok payload ->
          check_bool "classify over TCP" true
            (field "implementable" payload = J.Bool true)
      | Error e ->
          Unix.kill pid Sys.sigkill;
          Alcotest.fail ("classify: " ^ e));
      let rs = Client.call_pipelined c (pipeline_reqs ()) in
      List.iteri
        (fun i r ->
          match r with
          | Ok _ -> ()
          | Error e ->
              Unix.kill pid Sys.sigkill;
              Alcotest.fail (Printf.sprintf "pipelined TCP slot %d: %s" i e))
        rs;
      Client.close c);
  (* kill -9 a TCP daemon: no corpse file to trip over — a fresh daemon
     binds a fresh ephemeral port and serves immediately *)
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  let pid2, port2 = spawn_daemon_tcp () in
  (match
     Client.connect_addr ~retry:smoke_retry
       (Client.Tcp ("127.0.0.1", port2))
   with
  | Error e ->
      Unix.kill pid2 Sys.sigkill;
      Alcotest.fail ("post-kill connect: " ^ e)
  | Ok c ->
      (match Client.call c Codec.Stats with
      | Ok _ -> ()
      | Error e ->
          Unix.kill pid2 Sys.sigkill;
          Alcotest.fail ("post-kill stats: " ^ e));
      Client.close c);
  graceful_shutdown ~addr:(Some (Client.Tcp ("127.0.0.1", port2))) pid2
    "(tcp)"

(* ---- warm restart via --persist ---- *)

let cache_counter stats name =
  match field "cache" stats with
  | J.Obj fields -> (
      match List.assoc_opt name fields with
      | Some (J.Int n) -> n
      | _ -> Alcotest.fail ("cache stats lack " ^ name))
  | _ -> Alcotest.fail "stats payload lacks a cache object"

let test_daemon_persist_warm_restart () =
  let path = tmp_sock "persist" in
  let snap = Filename.temp_file "mo-snap" ".json" in
  Sys.remove snap;
  rm path;
  (* first life: compute one classification, shut down → snapshot *)
  let pid1 = spawn_daemon ~extra:[ "--persist"; snap ] path in
  (match Client.connect_addr ~retry:smoke_retry (Client.Uds path) with
  | Error e ->
      Unix.kill pid1 Sys.sigkill;
      Alcotest.fail e
  | Ok c ->
      (match Client.call c (Codec.Classify (pred causal)) with
      | Ok _ -> ()
      | Error e ->
          Unix.kill pid1 Sys.sigkill;
          Alcotest.fail ("classify: " ^ e));
      Client.close c);
  graceful_shutdown pid1 path;
  check_bool "shutdown wrote the snapshot" true (Sys.file_exists snap);
  (* second life: starts warm, first repeat query is a cache hit *)
  let pid2 = spawn_daemon ~extra:[ "--persist"; snap ] path in
  (match Client.connect_addr ~retry:smoke_retry (Client.Uds path) with
  | Error e ->
      Unix.kill pid2 Sys.sigkill;
      Alcotest.fail e
  | Ok c ->
      let stats () =
        match Client.call c Codec.Stats with
        | Ok s -> s
        | Error e ->
            Unix.kill pid2 Sys.sigkill;
            Alcotest.fail ("stats: " ^ e)
      in
      check_bool "restart loaded the table" true
        (cache_counter (stats ()) "loaded" >= 1);
      (* an alpha-renaming of the persisted predicate: same digest *)
      (match Client.call c (Codec.Classify (pred "a.s < b.s & b.r < a.r")) with
      | Ok payload ->
          check_bool "warm answer is implementable" true
            (field "implementable" payload = J.Bool true)
      | Error e ->
          Unix.kill pid2 Sys.sigkill;
          Alcotest.fail ("warm classify: " ^ e));
      let s = stats () in
      check_bool "warm restart answered from the table" true
        (cache_counter s "hits" >= 1);
      check_int "nothing recomputed" 0 (cache_counter s "misses");
      Client.close c);
  graceful_shutdown pid2 path;
  Sys.remove snap

(* one raw request frame over a fresh connection; the reply's bytes as
   the daemon wrote them *)
let raw_call path frame =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      write_all fd frame;
      let buf = Buffer.create 2048 and b = Bytes.create 4096 in
      (* header, then the payload and its terminator *)
      let rec until_complete () =
        let s = Buffer.contents buf in
        match String.index_opt s '\n' with
        | Some nl
          when String.length s >= nl + 2 + int_of_string (String.sub s 0 nl)
          ->
            s
        | _ -> (
            match Unix.read fd b 0 4096 with
            | 0 -> Alcotest.fail "daemon closed before a whole reply"
            | n ->
                Buffer.add_subbytes buf b 0 n;
                until_complete ())
      in
      until_complete ())

(* (c) over the daemon: a renamed hit's reply bytes equal the first
   miss's, equal the in-process encoding, and survive a --persist
   restart *)
let test_daemon_hit_bytes () =
  let path = tmp_sock "hitbytes" in
  let snap = Filename.temp_file "mo-snaphit" ".json" in
  Sys.remove snap;
  rm path;
  let frame req =
    Codec.encode_frame
      (Codec.request_to_json { Codec.id = 7; deadline_ms = None; req })
  in
  let renamed = "a.s < b.s & b.r < a.r" in
  let queries =
    [
      ( "classify",
        frame (Codec.Classify (pred causal)),
        frame (Codec.Classify (pred renamed)),
        Codec.classify_payload (pred causal) );
      ( "lattice",
        frame (Codec.Lattice (pred causal, None)),
        frame (Codec.Lattice (pred renamed, None)),
        Codec.lattice_payload (pred causal) );
    ]
  in
  let life () =
    let pid = spawn_daemon ~extra:[ "--persist"; snap ] path in
    round_trip path;
    let got =
      List.map
        (fun (_, miss, hit, _) -> (raw_call path miss, raw_call path hit))
        queries
    in
    graceful_shutdown pid path;
    got
  in
  let first = life () in
  let second = life () in
  List.iter2
    (fun (name, _, _, payload) ((miss, hit), (miss2, hit2)) ->
      let want = Codec.encode_frame (Codec.ok_response ~id:7 payload) in
      check_string (name ^ ": first miss") want miss;
      check_string (name ^ ": renamed hit") want hit;
      check_string (name ^ ": after restart") want miss2;
      check_string (name ^ ": renamed after restart") want hit2)
    queries
    (List.combine first second);
  Sys.remove snap

(* a version-1 snapshot may hold answers from the old silent cycle cap:
   the daemon refuses it, starts cold and recomputes *)
let test_daemon_persist_v1_cold () =
  let path = tmp_sock "persistv1" in
  let snap = Filename.temp_file "mo-snapv1" ".json" in
  rm path;
  let key = "c:" ^ Mo_core.Canon.digest (pred causal) in
  let oc = open_out snap in
  output_string oc
    (J.to_string
       (J.Obj
          [
            ("version", J.Int 1);
            ( "entries",
              J.List
                [
                  J.List
                    [ J.String key; J.Obj [ ("verdict", J.String "general") ] ];
                ] );
          ]));
  close_out oc;
  let pid = spawn_daemon ~extra:[ "--persist"; snap ] path in
  (match Client.connect_addr ~retry:smoke_retry (Client.Uds path) with
  | Error e ->
      Unix.kill pid Sys.sigkill;
      Alcotest.fail e
  | Ok c ->
      let call req =
        match Client.call c req with
        | Ok payload -> payload
        | Error e ->
            Unix.kill pid Sys.sigkill;
            Alcotest.fail e
      in
      check_int "nothing loaded" 0 (cache_counter (call Codec.Stats) "loaded");
      check_string "recomputed, not the stale entry"
        (J.to_string (Codec.classify_payload (pred causal)))
        (J.to_string (call (Codec.Classify (pred causal))));
      check_int "a cold miss" 1 (cache_counter (call Codec.Stats) "misses");
      Client.close c);
  graceful_shutdown pid path;
  Sys.remove snap

let metrics_counter stats name =
  match field "metrics" stats with
  | J.Obj fields -> (
      match List.assoc_opt name fields with
      | Some (J.Obj mf) -> (
          match List.assoc_opt "value" mf with Some (J.Int n) -> n | _ -> 0)
      | _ -> 0)
  | _ -> Alcotest.fail "stats payload lacks a metrics object"

(* --persist-interval: the accept loop writes background snapshots on a
   timer, so even a kill -9 (no shutdown save) leaves a usable table
   behind for the next life *)
let test_daemon_persist_interval () =
  let path = tmp_sock "interval" in
  let snap = Filename.temp_file "mo-snapi" ".json" in
  Sys.remove snap;
  rm path;
  let pid1 =
    spawn_daemon
      ~extra:[ "--persist"; snap; "--persist-interval"; "0.2" ]
      path
  in
  (match Client.connect_addr ~retry:smoke_retry (Client.Uds path) with
  | Error e ->
      Unix.kill pid1 Sys.sigkill;
      Alcotest.fail e
  | Ok c ->
      (match Client.call c (Codec.Classify (pred causal)) with
      | Ok _ -> ()
      | Error e ->
          Unix.kill pid1 Sys.sigkill;
          Alcotest.fail ("classify: " ^ e));
      (* the select timeout fires the save with no client traffic at
         all — but the very first save can predate the classify above
         (an empty table snapshots to a valid file), so wait for a
         snapshot big enough to hold the entry, not just for the file *)
      let deadline = Unix.gettimeofday () +. 10. in
      let has_entry () =
        match Unix.stat snap with
        | { Unix.st_size; _ } -> st_size > 64
        | exception Unix.Unix_error _ -> false
      in
      let rec wait () =
        if has_entry () then ()
        else if Unix.gettimeofday () > deadline then begin
          Unix.kill pid1 Sys.sigkill;
          Alcotest.fail "no background snapshot with the entry within 10s"
        end
        else begin
          Unix.sleepf 0.05;
          wait ()
        end
      in
      wait ();
      (match Client.call c Codec.Stats with
      | Ok s ->
          check_bool "svc.persist.saves counted" true
            (metrics_counter s "svc.persist.saves" >= 1)
      | Error e ->
          Unix.kill pid1 Sys.sigkill;
          Alcotest.fail ("stats: " ^ e));
      Client.close c);
  (* kill -9: the shutdown save never runs, the background one remains *)
  Unix.kill pid1 Sys.sigkill;
  ignore (Unix.waitpid [] pid1);
  check_bool "snapshot survives the crash" true (Sys.file_exists snap);
  (* the restart comes up warm from the background snapshot, over the
     predecessor's corpse socket *)
  let pid2 = spawn_daemon ~extra:[ "--persist"; snap ] path in
  (match Client.connect_addr ~retry:smoke_retry (Client.Uds path) with
  | Error e ->
      Unix.kill pid2 Sys.sigkill;
      Alcotest.fail e
  | Ok c ->
      (match Client.call c Codec.Stats with
      | Ok s ->
          check_bool "restart loaded the background snapshot" true
            (cache_counter s "loaded" >= 1)
      | Error e ->
          Unix.kill pid2 Sys.sigkill;
          Alcotest.fail ("warm stats: " ^ e));
      Client.close c);
  graceful_shutdown pid2 path;
  Sys.remove snap

let test_request_json_roundtrip () =
  let reqs =
    [
      envelope ~id:1 (Codec.Classify (pred causal));
      envelope ~id:2 ~deadline_ms:250 (Codec.Implies (pred fifo, pred causal));
      envelope ~id:3 (Codec.Minimize [ pred fifo; pred causal ]);
      envelope ~id:4 (Codec.Witness (pred fifo));
      envelope ~id:5 Codec.Stats;
      envelope ~id:6 Codec.Shutdown;
      envelope ~id:10 (Codec.Monitor (pred fifo, "send 0 0 1\n", None));
      envelope ~id:11 (Codec.Monitor (pred fifo, "send 0 0 1\n", Some 8));
      envelope ~id:7
        (Codec.Batch
           [ envelope ~id:8 (Codec.Classify (pred causal));
             envelope ~id:9 Codec.Stats ]);
    ]
  in
  List.iter
    (fun e ->
      match Codec.request_of_json (Codec.request_to_json e) with
      | Ok e' ->
          check_string
            (Printf.sprintf "request %d" e.Codec.id)
            (J.to_string (Codec.request_to_json e))
            (J.to_string (Codec.request_to_json e'))
      | Error (_, msg) -> Alcotest.fail msg)
    reqs;
  (* batches do not nest *)
  let nested =
    Codec.request_to_json
      (envelope ~id:1
         (Codec.Batch [ envelope ~id:2 (Codec.Batch []) ]))
  in
  match Codec.request_of_json nested with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nested batch accepted"

let () =
  Alcotest.run "service"
    [
      ( "codec",
        [
          Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "malformed frames" `Quick test_frame_malformed;
          Alcotest.test_case "max_len" `Quick test_frame_max_len;
          Alcotest.test_case "nonblocking decode-ahead" `Quick
            test_frame_nonblock;
          Alcotest.test_case "splice differential" `Quick
            test_splice_differential;
          Alcotest.test_case "writer reuse" `Quick test_writer_reuse;
          Alcotest.test_case "splice property" `Quick test_splice_property;
          Alcotest.test_case "request json roundtrip" `Quick
            test_request_json_roundtrip;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru accounting" `Quick test_cache_lru;
          Alcotest.test_case "capacity 0" `Quick test_cache_disabled;
          Alcotest.test_case "striping" `Quick test_cache_striping;
          Alcotest.test_case "striping under concurrency" `Quick
            test_cache_striping_concurrent;
          Alcotest.test_case "snapshot and restore" `Quick
            test_cache_snapshot_restore;
          Alcotest.test_case "entry ages" `Quick test_cache_age_stats;
        ] );
      ( "persist",
        [
          Alcotest.test_case "snapshot file roundtrip" `Quick
            test_persist_roundtrip;
        ] );
      ( "engine",
        [
          Alcotest.test_case "canonical cache keying" `Quick
            test_engine_cache_keying;
          Alcotest.test_case "malformed requests" `Quick test_engine_malformed;
          Alcotest.test_case "deadlines" `Quick test_engine_deadline;
          Alcotest.test_case "batch determinism" `Quick
            test_batch_determinism;
          Alcotest.test_case "shutdown semantics" `Quick
            test_shutdown_semantics;
          Alcotest.test_case "payload shapes" `Quick test_payload_shapes;
          Alcotest.test_case "monitor op" `Quick test_monitor_op;
          Alcotest.test_case "lattice op" `Quick test_lattice_op;
          Alcotest.test_case "lattice kmax bound" `Quick
            test_lattice_kmax_bound;
          Alcotest.test_case "pipelined groups" `Quick test_pipelined_group;
          Alcotest.test_case "warm restart" `Quick test_engine_warm_restart;
          Alcotest.test_case "batch bytes" `Quick test_batch_bytes;
          Alcotest.test_case "batch bytes property" `Quick
            test_batch_bytes_property;
          Alcotest.test_case "snapshot bytes" `Quick test_snapshot_bytes;
          Alcotest.test_case "request count" `Quick test_request_count;
        ] );
      ( "edge",
        [
          Alcotest.test_case "client retry backoff" `Quick
            test_client_retry_backoff;
          Alcotest.test_case "stale socket probe" `Quick
            test_remove_stale_socket;
          Alcotest.test_case "kill -9 then restart" `Quick
            test_kill9_restart_smoke;
          Alcotest.test_case "daemon pipelining" `Quick
            test_daemon_pipelining;
          Alcotest.test_case "jobs determinism" `Quick
            test_daemon_jobs_determinism;
          Alcotest.test_case "hostile kmax" `Quick test_daemon_kmax_bound;
          Alcotest.test_case "out-of-range integer" `Quick
            test_daemon_int_overflow;
          Alcotest.test_case "tcp transport" `Quick test_tcp_round_trip;
          Alcotest.test_case "hit bytes = miss bytes" `Quick
            test_daemon_hit_bytes;
          Alcotest.test_case "persist warm restart" `Quick
            test_daemon_persist_warm_restart;
          Alcotest.test_case "version-1 snapshot starts cold" `Quick
            test_daemon_persist_v1_cold;
          Alcotest.test_case "persist interval survives kill -9" `Quick
            test_daemon_persist_interval;
        ] );
    ]
