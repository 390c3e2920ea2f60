(* svc-warm and svc-cold: mopcd over a Unix-domain socket, two
   closed-loop connections each keeping one pipelined group in flight.

   svc-warm warm-fills ~1,000 distinct digests, then sends fresh
   alpha-renamings of them (every request a cache hit) in groups of 8;
   each response is compared byte for byte with the in-process payload
   as it arrives. svc-cold sends only first-seen digests in groups of 4
   — mostly cheap classifies, one in five a multi-cycle shape, one in 40
   a lattice op — and checks every response after the run against the
   in-process payload of the same predicate. *)

open Mo_core
open Common
module J = Mo_obs.Jsonb
module Codec = Mo_service.Codec

(* ---- predicates ---------------------------------------------------- *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* A predicate as the daemon sees it: the wire carries the text, whose
   parse numbers variables by first appearance and drops unused ones.
   Generated predicates are normalized this way before use, so the
   in-process payload is computed on exactly what the daemon computes. *)
let wire p = Parse.predicate_exn (Forbidden.to_string p)

(* a fresh random alpha-renaming: variables permuted, conjuncts and
   guards reordered *)
let rename rng p =
  let perm = Array.init (Forbidden.nvars p) Fun.id in
  shuffle rng perm;
  let ep (e : Term.endpoint) = { e with Term.var = perm.(e.Term.var) } in
  let conjuncts =
    Array.of_list
      (List.map
         (fun (c : Term.conjunct) -> Term.(ep c.before @> ep c.after))
         (Forbidden.conjuncts p))
  in
  let guards =
    Array.of_list
      (List.map
         (function
           | Term.Same_src (x, y) -> Term.Same_src (perm.(x), perm.(y))
           | Term.Same_dst (x, y) -> Term.Same_dst (perm.(x), perm.(y))
           | Term.Color_is (x, c) -> Term.Color_is (perm.(x), c))
         (Forbidden.guards p))
  in
  shuffle rng conjuncts;
  shuffle rng guards;
  Forbidden.make ~nvars:(Forbidden.nvars p) ~guards:(Array.to_list guards)
    (Array.to_list conjuncts)

(* a union of [ncycles] random Hamiltonian cycles over [nvars] variables:
   strongly connected and rich in composite cycles, so classification
   costs milliseconds *)
let multi_cycle rng ~nvars ~ncycles =
  let one_cycle () =
    let perm = Array.init nvars Fun.id in
    shuffle rng perm;
    List.init nvars (fun i ->
        let pt v = if Random.State.bool rng then Term.s v else Term.r v in
        Term.(pt perm.(i) @> pt perm.((i + 1) mod nvars)))
  in
  wire
    (Forbidden.make ~nvars
       (List.concat (List.init ncycles (fun _ -> one_cycle ()))))

let random_pred rng ~max_vars ~max_conjuncts =
  let seed = Random.State.bits rng in
  wire
    (if Random.State.bool rng then
       Mo_workload.Random_pred.predicate ~max_vars ~max_conjuncts ~seed ()
     else
       Mo_workload.Random_pred.guarded_predicate ~max_vars ~max_conjuncts
         ~seed ())

(* ---- requests ------------------------------------------------------ *)

type op = Classify | Lattice

type req = {
  id : int;
  op : op;
  pred : Forbidden.t;
  frame : string;  (** the encoded request frame *)
  expect : string option;
      (** the response's exact bytes when known before sending (warm) *)
}

let make_req ?expect ~id op pred =
  let req =
    match op with
    | Classify -> Codec.Classify pred
    | Lattice -> Codec.Lattice (pred, None)
  in
  let frame =
    Codec.encode_frame
      (Codec.request_to_json { Codec.id; deadline_ms = None; req })
  in
  { id; op; pred; frame; expect }

let payload op pred =
  match op with
  | Classify -> Codec.classify_payload pred
  | Lattice -> Codec.lattice_payload pred

let response_bytes ~id p = J.to_string (Codec.ok_response ~id p)

(* The warm set: the catalog's shapes plus seeded random predicates of at
   most 6 variables, distinct modulo renaming. Element [k] is requested
   with id [k], so its response bytes are known in advance. *)
let warm_distinct = 1000

let warm_set ~seed =
  let rng = Mo_par.rng ~seed ~stream:1 in
  let seen = Hashtbl.create 2048 and out = ref [] in
  let add p =
    let d = Canon.digest p in
    if not (Hashtbl.mem seen d) then begin
      Hashtbl.add seen d ();
      let id = List.length !out in
      out := (p, response_bytes ~id (payload Classify p)) :: !out
    end
  in
  List.iter (fun (e : Catalog.entry) -> add (wire e.Catalog.pred)) Catalog.all;
  while Hashtbl.length seen < warm_distinct do
    add (random_pred rng ~max_vars:6 ~max_conjuncts:7)
  done;
  Array.of_list (List.rev !out)

let warm_gen ~seed set =
  let rng = Mo_par.rng ~seed ~stream:2 in
  fun () ->
    let k = Random.State.int rng (Array.length set) in
    let p, expect = set.(k) in
    make_req ~expect ~id:k Classify (rename rng p)

(* First-seen digests only, in groups of [cold_group] whose kind follows
   the group number: of every ten groups one opens with a lattice op (one
   request in 40), two are 8-9 variable multi-cycle shapes (one request in
   five), and the rest cheap random or guarded predicates. Whole groups
   share a kind because a pipelined group is answered when its slowest
   member is: mixed groups would smear every mode into the next, while
   these keep the median inside the cheap-classify mode and the 99th
   percentile inside the lattice mode. *)
let cold_group = 4

let cold_gen ~seed =
  let rng = Mo_par.rng ~seed ~stream:3 in
  let seen = Hashtbl.create 4096 and n = ref 0 in
  let rec fresh make =
    let p = make () in
    let d = Canon.digest p in
    if Hashtbl.mem seen d then fresh make
    else begin
      Hashtbl.add seen d ();
      p
    end
  in
  let cheap () = random_pred rng ~max_vars:8 ~max_conjuncts:16 in
  let hard () =
    multi_cycle rng ~nvars:(8 + Random.State.int rng 2) ~ncycles:5
  in
  fun () ->
    let i = !n in
    incr n;
    match (i / cold_group mod 10, i mod cold_group) with
    | 9, 0 -> make_req ~id:i Lattice (fresh cheap)
    | (2 | 6), _ -> make_req ~id:i Classify (fresh hard)
    | _ -> make_req ~id:i Classify (fresh cheap)

(* ---- the wire ------------------------------------------------------ *)

(* one connection: a frame reader plus the group in flight *)
type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  mutable group : req array;
  mutable got : int;
  mutable sent_at : float;
  mutable next : req array;  (** generated while [group] is in flight *)
}

let open_conn d =
  {
    fd = Proc.connect d;
    buf = Bytes.create 65536;
    lo = 0;
    hi = 0;
    group = [||];
    got = 0;
    sent_at = 0.;
    next = [||];
  }

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s
      (off + Unix.write_substring fd s off (String.length s - off))

let send c g =
  let frames = List.map (fun r -> r.frame) (Array.to_list g) in
  write_all c.fd (String.concat "" frames) 0;
  c.sent_at <- now ();
  c.group <- g;
  c.got <- 0

(* a complete frame's payload from the buffer, if one is there *)
let take_frame c =
  match Bytes.index_from_opt c.buf c.lo '\n' with
  | Some nl when nl < c.hi ->
      let len = int_of_string (Bytes.sub_string c.buf c.lo (nl - c.lo)) in
      if c.hi - (nl + 1) >= len + 1 then begin
        let p = Bytes.sub_string c.buf (nl + 1) len in
        c.lo <- nl + 1 + len + 1;
        Some p
      end
      else None
  | _ -> None

let fill c =
  if c.lo > 0 then begin
    Bytes.blit c.buf c.lo c.buf 0 (c.hi - c.lo);
    c.hi <- c.hi - c.lo;
    c.lo <- 0
  end;
  if c.hi = Bytes.length c.buf then begin
    let b = Bytes.create (2 * Bytes.length c.buf) in
    Bytes.blit c.buf 0 b 0 c.hi;
    c.buf <- b
  end;
  match Unix.read c.fd c.buf c.hi (Bytes.length c.buf - c.hi) with
  | 0 -> failwith "mopcd closed the connection"
  | n -> c.hi <- c.hi + n

(* Closed loop over [conns]: every connection keeps one group of
   [group] requests in flight until [more ()] turns false, then drains.
   [on_response req payload latency] sees each response as it lands. *)
let drive conns ~group ~gen ~more ~on_response =
  let make () = Array.init group (fun _ -> gen ()) in
  let send_next c g =
    send c g;
    c.next <- (if more () then make () else [||])
  in
  List.iter (fun c -> send_next c (make ())) conns;
  let busy c = c.got < Array.length c.group in
  let rec loop () =
    match List.filter busy conns with
    | [] -> ()
    | waiting ->
        let ready =
          match Unix.select (List.map (fun c -> c.fd) waiting) [] [] 60. with
          | [], _, _ -> failwith "mopcd: no response within 60 s"
          | ready, _, _ -> ready
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        List.iter
          (fun c ->
            if List.mem c.fd ready then begin
              fill c;
              let rec frames () =
                match take_frame c with
                | Some p ->
                    let t = now () in
                    on_response c.group.(c.got) p (t -. c.sent_at);
                    c.got <- c.got + 1;
                    if busy c then frames ()
                    else if more () && c.next <> [||] then send_next c c.next
                | None -> ()
              in
              frames ()
            end)
          waiting;
        loop ()
  in
  loop ()

(* ---- the workloads ------------------------------------------------- *)

let setup_reps = 5

(* [setup_reps] daemons spawned and filled; the median set-up time, the
   last daemon (left running) and the fill's failure count *)
let set_up ~mopcd ~fill =
  let times = Samples.create () in
  let rec go i bad =
    let t0 = now () in
    let d = Proc.spawn ~mopcd in
    let c = open_conn d in
    let bad = bad + fill c in
    Unix.close c.fd;
    Samples.add times (now () -. t0);
    if i = setup_reps then (Samples.median times, d, bad)
    else begin
      Proc.stop d;
      go (i + 1) bad
    end
  in
  go 1 0

(* a generator handing out [reqs] in order *)
let from_list reqs =
  let q = ref reqs in
  fun () ->
    match !q with
    | r :: rest ->
        q := rest;
        r
    | [] -> invalid_arg "from_list: exhausted"

(* one pass of [reqs] over [c], one group at a time; failures counted *)
let fill_pass reqs ~group ~check c =
  let take = from_list reqs and left = ref (List.length reqs) and bad = ref 0 in
  let rec groups () =
    if !left > 0 then begin
      let n = min group !left in
      left := !left - n;
      drive [ c ] ~group:n ~gen:take ~more:(fun () -> false)
        ~on_response:(fun r p _ -> if not (check r p) then incr bad);
      groups ()
    end
  in
  groups ();
  !bad

(* the timed phase on two connections; returns its wall seconds and the
   daemon's peak RSS *)
let timed d ~seconds ~group ~gen ~on_response =
  let conns = [ open_conn d; open_conn d ] in
  Fun.protect
    ~finally:(fun () -> List.iter (fun c -> Unix.close c.fd) conns)
    (fun () ->
      let t0 = now () in
      let deadline = t0 +. seconds in
      drive conns ~group ~gen
        ~more:(fun () -> now () < deadline)
        ~on_response:(fun r p dt -> on_response r p ~at:(now ()) dt);
      let wall = now () -. t0 in
      (wall, Proc.peak_rss_mb d))

let check_expected r p = r.expect = Some p

let warm_group = 8

let run_warm ~seed ~seconds ~mopcd =
  let set = warm_set ~seed in
  let fill_reqs =
    Array.to_list
      (Array.mapi (fun k (p, expect) -> make_req ~expect ~id:k Classify p) set)
  in
  let setup_s, d, bad =
    set_up ~mopcd
      ~fill:(fill_pass fill_reqs ~group:warm_group ~check:check_expected)
  in
  Fun.protect
    ~finally:(fun () -> Proc.stop d)
    (fun () ->
      let failed = ref bad and answered = ref 0 in
      (* half-second windows of ~25k requests *)
      let w = Windows.create ~t0:(now ()) ~seconds ~width:0.5 in
      let _, rss =
        timed d ~seconds ~group:warm_group ~gen:(warm_gen ~seed set)
          ~on_response:(fun r p ~at dt ->
            incr answered;
            Windows.add w ~at ~latency:dt ~items:1;
            if not (check_expected r p) then incr failed)
      in
      let rate, p50, tail = Windows.summary w ~busy:false in
      {
        attempted = !answered + (setup_reps * Array.length set);
        failed = !failed;
        metrics =
          [
            ("items_per_s", rate, "1/s");
            ("latency_p50_ms", p50 *. 1e3, "ms");
            ("latency_tail_ms", tail *. 1e3, "ms");
            ("peak_rss_mb", rss, "MB");
            ("setup_s", setup_s, "s");
          ];
      })

(* every response of a cold run against the in-process payload of the
   same predicate, computed over the pool after the daemon is gone *)
let verify_cold answered =
  let a = Array.of_list answered in
  let ok =
    Mo_par.Pool.map (Lazy.force pool) (Array.length a) ~f:(fun i ->
        let r, p = a.(i) in
        match payload r.op r.pred with
        | want -> response_bytes ~id:r.id want = p
        | exception _ -> false)
  in
  Array.fold_left (fun n ok -> if ok then n else n + 1) 0 ok

let cold_warmup = 40

let run_cold ~seed ~seconds ~mopcd =
  let answered = ref [] in
  let keep r p = answered := (r, p) :: !answered in
  (* one generator for the warm-ups and the timed phase, so no digest
     repeats anywhere in the run *)
  let gen = cold_gen ~seed in
  let setup_s, d, _ =
    set_up ~mopcd ~fill:(fun c ->
        fill_pass
          (List.init cold_warmup (fun _ -> gen ()))
          ~group:cold_group
          ~check:(fun r p -> keep r p; true)
          c)
  in
  (* two-second windows of a few hundred requests for throughput and
     p50; too few per window for a 99th percentile, so the tail is over
     the whole phase *)
  let lat = Samples.create () in
  let w = Windows.create ~t0:(now ()) ~seconds ~width:2. in
  let _, rss =
    Fun.protect
      ~finally:(fun () -> Proc.stop d)
      (fun () ->
        timed d ~seconds ~group:cold_group ~gen ~on_response:(fun r p ~at dt ->
            Samples.add lat dt;
            Windows.add w ~at ~latency:dt ~items:1;
            keep r p))
  in
  let failed = verify_cold !answered in
  let rate, p50, _ = Windows.summary w ~busy:false in
  {
    attempted = List.length !answered;
    failed;
    metrics =
      [
        ("items_per_s", rate, "1/s");
        ("latency_p50_ms", p50 *. 1e3, "ms");
        ("latency_tail_ms", Samples.tail lat *. 1e3, "ms");
        ("peak_rss_mb", rss, "MB");
        ("setup_s", setup_s, "s");
      ];
  }

(* ---- traced layers ------------------------------------------------- *)

module Cache = Mo_service.Cache
module Engine = Mo_service.Engine

(* a frame's JSON text, without the length header and terminator *)
let body frame =
  let nl = String.index frame '\n' in
  String.sub frame (nl + 1) (String.length frame - nl - 2)

(* One family's traffic, [groups] groups on one connection, each group
   also replayed in-process through the layers under spans: the request
   decode, the digest, a mirror of the decision cache (find, and on a
   miss compute and put), an empty group-sized pool map, the engine's
   pipelined serve of the group and the response encode. The engine's
   responses must equal the daemon's byte for byte. With [~overhead], an
   identical pass that records no spans runs first, and the tracing
   overhead is the change in median request latency between the two. *)
let trace tr ~warm ~seed ~groups ~overhead:with_overhead ~mopcd =
  let pool = Lazy.force pool in
  let engine = Engine.create ~pool () in
  let mirror = Cache.create ~capacity:4096 ~stripes:8 () in
  let group, gen, fill =
    if warm then begin
      let set = warm_set ~seed in
      ( warm_group,
        warm_gen ~seed set,
        Array.to_list
          (Array.mapi
             (fun k (p, expect) -> make_req ~expect ~id:k Classify p)
             set) )
    end
    else (cold_group, cold_gen ~seed, [])
  in
  let key r d = match r.op with Classify -> "c:" ^ d | Lattice -> "l:3:" ^ d in
  let attempted = ref 0 and failed = ref 0 in
  Proc.with_daemon ~mopcd (fun d ->
      let c = open_conn d in
      Fun.protect ~finally:(fun () -> Unix.close c.fd) (fun () ->
          (* the daemon, the engine and the mirror start equally warm *)
          failed := fill_pass fill ~group ~check:check_expected c;
          attempted := List.length fill;
          List.iter
            (fun r ->
              let j = Result.get_ok (J.of_string (body r.frame)) in
              ignore (Engine.serve_json_many engine [ j ]);
              Cache.put mirror
                (key r (Canon.digest r.pred))
                (payload r.op r.pred))
            fill;
          (* one group over the wire: its requests, responses, latencies *)
          let one_group () =
            let g = Array.init group (fun _ -> gen ()) in
            let got = ref [] in
            drive [ c ] ~group
              ~gen:(from_list (Array.to_list g))
              ~more:(fun () -> false)
              ~on_response:(fun _ p dt -> got := (p, dt) :: !got);
            attempted := !attempted + group;
            (g, c.sent_at, Array.of_list (List.rev !got))
          in
          (* one group over the wire, then replayed in-process under
             [tr]'s spans; the request latencies go to [lat] *)
          let pass tr lat n =
            let g, sent, got = one_group () in
            let span name f =
              Spans.span tr ~parent:"svc.group" ~group:n name f
            in
            Array.iter
              (fun (_, dt) ->
                Samples.add lat dt;
                Spans.add tr ~group:n "svc.request" sent (sent +. dt))
              got;
            let decoded =
              Array.map
                (fun r ->
                  span "codec.decode" (fun () ->
                      let j = Result.get_ok (J.of_string (body r.frame)) in
                      (j, Result.get_ok (Codec.request_of_json j))))
                g
            in
            Array.iteri
              (fun i r ->
                (* the predicate as the engine sees it: decoded off the wire *)
                let pred =
                  match (snd decoded.(i)).Codec.req with
                  | Codec.Classify p | Codec.Lattice (p, _) -> p
                  | _ -> r.pred
                in
                let d = span "canon.digest" (fun () -> Canon.digest pred) in
                let k = key r d in
                match span "cache.find" (fun () -> Cache.find mirror k) with
                | Some _ -> ()
                | None ->
                    let compute =
                      match r.op with
                      | Classify -> "classify.compute"
                      | Lattice -> "lattice.compute"
                    in
                    let p = span compute (fun () -> payload r.op pred) in
                    span "cache.put" (fun () -> Cache.put mirror k p))
              g;
            span "pool.map" (fun () ->
                ignore (Mo_par.Pool.map pool group ~f:(fun _ -> ())));
            let t0 = now () in
            let resps, _ =
              Engine.serve_json_many engine
                (Array.to_list (Array.map fst decoded))
            in
            let t1 = now () in
            Spans.add tr ~parent:"svc.group" ~group:n "engine.serve" t0 t1;
            (* the client's view of the group, less the engine's share *)
            let last =
              Array.fold_left (fun m (_, dt) -> Float.max m dt) 0. got
            in
            Spans.add tr ~parent:"svc.group" ~group:n "server.overhead" sent
              (sent +. last -. (t1 -. t0));
            List.iteri
              (fun i resp ->
                ignore
                  (span "codec.encode" (fun () -> Codec.encode_frame resp));
                if J.to_string resp <> fst got.(i) then incr failed)
              resps
          in
          let untraced = Samples.create () and traced = Samples.create () in
          if with_overhead then
            for n = 1 to groups do
              pass Spans.null untraced n
            done;
          for n = 1 to groups do
            pass tr traced n
          done;
          (* a layer's median, when this traffic reached it *)
          let layer ?(ms = false) name =
            if not (Spans.has tr name) then []
            else
              let v = Spans.median tr name in
              if ms then [ (name ^ "_ms", v *. 1e3, "ms") ]
              else [ (name ^ "_us", v *. 1e6, "us") ]
          in
          let hits = Cache.hits mirror and misses = Cache.misses mirror in
          {
            layers =
              List.concat
                [
                  layer "codec.decode";
                  layer "codec.encode";
                  layer "canon.digest";
                  layer "cache.find";
                  [
                    ( "cache.hit_ratio",
                      float_of_int hits /. float_of_int (hits + misses),
                      "ratio" );
                    ("cache.hits", float_of_int hits, "count");
                    ("cache.misses", float_of_int misses, "count");
                  ];
                  layer "server.overhead";
                  layer "engine.serve";
                  layer "cache.put";
                  layer "pool.map";
                  layer "classify.compute";
                  layer ~ms:true "lattice.compute";
                ];
            t_attempted = !attempted;
            t_failed = !failed;
            overhead_pct =
              (if with_overhead then
                 Some
                   (overhead ~untraced:(Samples.median untraced)
                      ~traced:(Samples.median traced))
               else None);
          }))
