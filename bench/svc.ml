(* B13: the classification service — decision-cache effectiveness,
   cold-path scaling over the worker pool, warm hot-path throughput,
   and restart-warm latency. Writes BENCH_svc.json.

   The workload models what mopcd actually sees: a modest set of
   distinct specifications queried over and over under different
   variable namings and clause orders. The stream is [distinct]
   predicates x [renamings] random alpha-renamings each, interleaved.
   Four experiments:

   - cold vs warm (sequential): cache capacity 0 — every request
     canonicalizes and computes — against the default cache pre-warmed
     with one pass, on the identical stream. The warm/cold throughput
     ratio is the point of the cache: the EXPERIMENTS.md bar is >= 5x.
   - sweep: the same stream issued as pipelined groups against a cold
     engine at --jobs 1/2/4 — the misses shard over the pool, so the
     wall-clock exposes cold-path scaling (speedup/efficiency leaves
     sit under numeric job keys, which the gate skips on 1-core
     baseline hosts).
   - hot: a small-predicate catalog (2-3 variables — canonicalization
     is the whole per-request cost) answered warm; the bar is the
     100k req/s EXPERIMENTS.md row.
   - restart: snapshot the warm table, restore it into a fresh engine
     (the --persist path), and compare the first post-restore pass
     against steady-state — a warm restart's first queries must cost
     hits, not recomputation.

   The hit/miss counters are a pure function of the seeded stream, so
   the gate compares them exactly; wall-clock, throughput, speedup and
   first_to_steady_ratio are host-dependent timings under the gate's
   one-sided tolerance. *)

open Mo_core

let j_int i = Mo_obs.Jsonb.Int i
let j_str s = Mo_obs.Jsonb.String s
let j_bool b = Mo_obs.Jsonb.Bool b
let j_float f = Mo_obs.Jsonb.Float f

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* ---- the query stream -------------------------------------------- *)

let distinct_preds = 12
let renamings = 16

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* a union of [ncycles] random Hamiltonian cycles over one variable
   set: strongly connected, free of same-variable conjuncts, and rich
   in composite simple cycles — the shape on which the classifier's
   cycle enumeration (and hence the cache) actually earns its keep *)
let multi_cycle ~nvars ~ncycles ~seed =
  let rng = Mo_par.rng ~seed ~stream:1 in
  let one_cycle () =
    let perm = Array.init nvars Fun.id in
    shuffle rng perm;
    List.init nvars (fun i ->
        let a = perm.(i) and b = perm.((i + 1) mod nvars) in
        let pt v = if Random.State.bool rng then Term.s v else Term.r v in
        Term.(pt a @> pt b))
  in
  Forbidden.make ~nvars
    (List.concat (List.init ncycles (fun _ -> one_cycle ())))

(* the catalog's shapes, degenerate random ones (mostly settled by
   simplification alone) and hard multi-cycle ones: enough variety to
   exercise every classifier branch, expensive enough in aggregate that
   decision work dominates canonicalization *)
let base_predicates =
  let parsed =
    List.map Parse.predicate_exn
      [
        "x.s < y.s & y.r < x.r";
        "x.s < y.s & y.r < x.r & src(x) = src(y)";
        "x.s < y.r & y.s < x.r";
        "x.r < y.s & y.r < z.s & z.r < x.s";
      ]
  in
  let random =
    List.init 4 (fun i ->
        if i mod 2 = 0 then
          Mo_workload.Random_pred.guarded_predicate ~max_vars:8
            ~max_conjuncts:16 ~seed:(1000 + i) ()
        else
          Mo_workload.Random_pred.predicate ~max_vars:8 ~max_conjuncts:16
            ~seed:(2000 + i) ())
  in
  let hard =
    List.init
      (distinct_preds - List.length parsed - List.length random)
      (fun i -> multi_cycle ~nvars:(8 + (i mod 2)) ~ncycles:5 ~seed:(30 + i))
  in
  parsed @ random @ hard

let rename rng p =
  let n = Forbidden.nvars p in
  let perm = Array.init n Fun.id in
  shuffle rng perm;
  let ep (e : Term.endpoint) = { e with Term.var = perm.(e.Term.var) } in
  let conjuncts =
    Array.of_list
      (List.map
         (fun (c : Term.conjunct) ->
           Term.(ep c.Term.before @> ep c.Term.after))
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
  Forbidden.make ~nvars:n
    ~guards:(Array.to_list guards)
    (Array.to_list conjuncts)

(* interleaved: round-robin over the distinct predicates so cold never
   benefits from temporal locality it was not granted *)
let stream =
  lazy
    (let rng = Mo_par.rng ~seed:13 ~stream:0 in
     List.concat_map
       (fun _round -> List.map (rename rng) base_predicates)
       (List.init renamings Fun.id))

(* sequential passes go through the reply-level entry point mopcd
   serves: a hit is the cached wire text, with no tree built *)
let drive engine reqs =
  List.iteri
    (fun i p ->
      let env =
        { Mo_service.Codec.id = i; deadline_ms = None; req = Mo_service.Codec.Classify p }
      in
      match fst (Mo_service.Engine.serve_reply engine env) with
      | Mo_service.Codec.Payload _ | Mo_service.Codec.Responses _ -> ()
      | Mo_service.Codec.Json resp -> (
          match Mo_service.Codec.result_of_response resp with
          | Ok _ -> ()
          | Error e -> failwith ("svc bench: " ^ e)))
    reqs

let counters engine =
  let reg = Mo_service.Engine.registry engine in
  let v name = Option.value ~default:0 (Mo_obs.Metrics.value reg name) in
  (v "svc.cache_hits", v "svc.cache_misses")

(* ---- cold-path scaling: the stream as pipelined groups ----------- *)

(* one group per renaming round: [distinct_preds] distinct digests per
   group, so a cold engine shards exactly that many misses over the
   pool each round — the unit of parallelism mopcd's dispatch hands the
   engine *)
let grouped_stream reqs =
  let rec chunk acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | p :: rest ->
        if n = distinct_preds then chunk (List.rev cur :: acc) [ p ] 1 rest
        else chunk acc (p :: cur) (n + 1) rest
  in
  chunk [] [] 0 reqs

(* each group becomes the request trees a decoded frame yields before
   the timed section, which serves them through the pipelined entry
   point mopcd uses *)
let encode_groups groups =
  List.map
    (List.mapi (fun i p ->
         Mo_service.Codec.request_to_json
           { Mo_service.Codec.id = i; deadline_ms = None;
             req = Mo_service.Codec.Classify p }))
    groups

let drive_grouped engine groups =
  List.iter
    (fun group ->
      let replies, _stop = Mo_service.Engine.serve_replies engine group in
      List.iter
        (function
          | Mo_service.Codec.Payload _ | Mo_service.Codec.Responses _ -> ()
          | Mo_service.Codec.Json resp -> (
              match Mo_service.Codec.result_of_response resp with
              | Ok _ -> ()
              | Error e -> failwith ("svc bench: " ^ e)))
        replies)
    groups

let sweep_point ~jobs groups nreqs =
  let pool = Mo_par.Pool.create ~jobs () in
  let engine = Mo_service.Engine.create ~cache_capacity:0 ~pool () in
  let groups = encode_groups groups in
  let (), wall = time (fun () -> drive_grouped engine groups) in
  let _, misses = counters engine in
  (wall, misses, nreqs)

(* ---- warm hot path: small-catalog repeat traffic ----------------- *)

(* 2-3 variable shapes: canonicalization is microseconds, so the warm
   per-request cost is digest + striped lookup — the regime the
   100k req/s bar talks about *)
let hot_base =
  List.map Parse.predicate_exn
    [
      "x.s < y.s & y.r < x.r";
      "x.s < y.s & y.r < x.r & src(x) = src(y)";
      "x.s < y.r & y.s < x.r";
      "x.r < y.s & y.r < z.s & z.r < x.s";
    ]

let hot_renamings = 8
let hot_passes = 400

let hot_envelopes () =
  let rng = Mo_par.rng ~seed:29 ~stream:2 in
  let preds =
    List.concat_map
      (fun _ -> List.map (rename rng) hot_base)
      (List.init hot_renamings Fun.id)
  in
  Array.of_list
    (List.mapi
       (fun i p ->
         { Mo_service.Codec.id = i; deadline_ms = None;
           req = Mo_service.Codec.Classify p })
       preds)

let drive_hot engine envs passes =
  for _ = 1 to passes do
    Array.iter
      (fun env -> ignore (Mo_service.Engine.serve_reply engine env))
      envs
  done

(* ---- the experiment ---------------------------------------------- *)

let summary () =
  Format.printf "@.%s@.== B13: decision-cache throughput (mopcd engine)@.%s@."
    (String.make 74 '=') (String.make 74 '=');
  let reqs = Lazy.force stream in
  let nreqs = List.length reqs in
  let digests =
    List.sort_uniq compare (List.map Mo_core.Canon.digest reqs)
  in
  let cold_engine = Mo_service.Engine.create ~cache_capacity:0 () in
  let (), cold_wall = time (fun () -> drive cold_engine reqs) in
  let cold_hits, cold_misses = counters cold_engine in
  let warm_engine = Mo_service.Engine.create () in
  drive warm_engine reqs;
  (* measured pass: every digest is now resident *)
  let warm_before = counters warm_engine in
  let (), warm_wall = time (fun () -> drive warm_engine reqs) in
  let warm_after = counters warm_engine in
  let warm_hits = fst warm_after - fst warm_before in
  let warm_misses = snd warm_after - snd warm_before in
  let throughput wall = float_of_int nreqs /. wall in
  let speedup = cold_wall /. warm_wall in
  Format.printf
    "  %d requests (%d distinct specs, %d renamings each)@.  cold: %7.3f s \
     (%8.0f req/s)  hits %d  misses %d@.  warm: %7.3f s (%8.0f req/s)  hits \
     %d  misses %d@.  warm/cold speedup %.1fx@."
    nreqs distinct_preds renamings cold_wall (throughput cold_wall) cold_hits
    cold_misses warm_wall (throughput warm_wall) warm_hits warm_misses
    speedup;
  (* cold-path scaling over the dispatch pool *)
  let groups = grouped_stream reqs in
  let sweep_jobs = [ 1; 2; 4 ] in
  let sweep =
    List.map
      (fun jobs -> (jobs, sweep_point ~jobs groups nreqs))
      sweep_jobs
  in
  let base_wall =
    match sweep with (_, (w, _, _)) :: _ -> w | [] -> assert false
  in
  List.iter
    (fun (jobs, (wall, misses, n)) ->
      Format.printf
        "  jobs %d: %7.3f s (%8.0f req/s)  misses %d  speedup %.2fx@." jobs
        wall
        (float_of_int n /. wall)
        misses (base_wall /. wall))
    sweep;
  (* warm hot path: small-catalog repeat traffic *)
  let hot_envs = hot_envelopes () in
  let hot_engine = Mo_service.Engine.create () in
  drive_hot hot_engine hot_envs 1;
  let hot_before = counters hot_engine in
  let (), hot_wall = time (fun () -> drive_hot hot_engine hot_envs hot_passes) in
  let hot_after = counters hot_engine in
  let hot_n = Array.length hot_envs * hot_passes in
  let hot_tp = float_of_int hot_n /. hot_wall in
  Format.printf "  hot:  %7.3f s (%8.0f req/s)  hits %d  misses %d@." hot_wall
    hot_tp
    (fst hot_after - fst hot_before)
    (snd hot_after - snd hot_before);
  (* restart-warm: restore the snapshot, then first pass vs steady *)
  let snap = Mo_service.Engine.snapshot hot_engine in
  let restarted = Mo_service.Engine.create () in
  let restored = Mo_service.Engine.restore restarted snap in
  let (), first_wall =
    time (fun () -> drive_hot restarted hot_envs 1)
  in
  let steady_passes = 50 in
  let (), steady_total =
    time (fun () -> drive_hot restarted hot_envs steady_passes)
  in
  let steady_wall = steady_total /. float_of_int steady_passes in
  let r_hits, r_misses = counters restarted in
  let ratio = first_wall /. steady_wall in
  Format.printf
    "  restart: restored %d, first pass %.6f s, steady %.6f s \
     (first/steady %.2fx)@."
    restored first_wall steady_wall ratio;
  let pass_json hits misses wall =
    Mo_obs.Jsonb.Obj
      [
        ("hits", j_int hits);
        ("misses", j_int misses);
        ("wall_s", j_float wall);
        ("throughput", j_float (throughput wall));
      ]
  in
  let json =
    Mo_obs.Jsonb.Obj
      [
        ( "host",
          Mo_obs.Jsonb.Obj
            [
              ("ocaml", j_str Sys.ocaml_version);
              ("domains", j_bool Mo_par.available);
              ("cores", j_int (Mo_par.recommended_jobs ()));
            ] );
        ( "workload",
          Mo_obs.Jsonb.Obj
            [
              ("distinct", j_int distinct_preds);
              ("renamings", j_int renamings);
              ("requests", j_int nreqs);
              ("distinct_digests", j_int (List.length digests));
            ] );
        ("cold", pass_json cold_hits cold_misses cold_wall);
        ("warm", pass_json warm_hits warm_misses warm_wall);
        ("speedup", j_float speedup);
        ( "sweep",
          Mo_obs.Jsonb.Obj
            (List.map
               (fun (jobs, (wall, misses, n)) ->
                 ( string_of_int jobs,
                   Mo_obs.Jsonb.Obj
                     [
                       ("requests", j_int n);
                       ("misses", j_int misses);
                       ("wall_s", j_float wall);
                       ("throughput", j_float (float_of_int n /. wall));
                       ("speedup", j_float (base_wall /. wall));
                       ( "efficiency",
                         j_float (base_wall /. wall /. float_of_int jobs) );
                     ] ))
               sweep) );
        ( "hot",
          Mo_obs.Jsonb.Obj
            [
              ("requests", j_int hot_n);
              ("distinct", j_int (List.length hot_base));
              ("hits", j_int (fst hot_after - fst hot_before));
              ("misses", j_int (snd hot_after - snd hot_before));
              ("wall_s", j_float hot_wall);
              ("throughput", j_float hot_tp);
            ] );
        ( "restart",
          Mo_obs.Jsonb.Obj
            [
              ("restored", j_int restored);
              ("hits", j_int r_hits);
              ("misses", j_int r_misses);
              ("first", Mo_obs.Jsonb.Obj [ ("wall_s", j_float first_wall) ]);
              ( "steady",
                Mo_obs.Jsonb.Obj
                  [
                    ("wall_s", j_float steady_wall);
                    ( "throughput",
                      j_float (float_of_int (Array.length hot_envs) /. steady_wall)
                    );
                  ] );
              ("first_to_steady_ratio", j_float ratio);
            ] );
      ]
  in
  let oc = open_out "BENCH_svc.json" in
  output_string oc (Mo_obs.Jsonb.to_string_pretty json);
  close_out oc;
  Format.printf "  service results written to BENCH_svc.json@."
