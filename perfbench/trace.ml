(* The traced run (--trace 1). Every per-layer metric is reported on
   every workload: the workload named runs its own traffic at full size
   and reports its tracing overhead; the layers it does not reach are
   measured on a short slice of the traffic of the workload that does,
   under the same seed. Spans are kept in memory and written, one file
   per traffic family, to .perfbench-run/trace-<workload>-<seed>-<family>.tsv
   when the run ends. *)

open Common

(* every per-layer metric, in report order *)
let names =
  [
    "codec.decode_us"; "codec.encode_us"; "canon.digest_us"; "cache.find_us";
    "cache.hit_ratio"; "server.overhead_us"; "engine.serve_us";
    "cache.put_us"; "pool.map_us"; "classify.compute_us";
    "lattice.compute_ms"; "enumerate.configs_ms"; "enumerate.walk_ms";
    "eval.ms"; "enumerate.count_ms"; "monitor.frontier_us"; "pmon.match_us";
    "cache.hits"; "cache.misses"; "enumerate.orbit_configs";
    "modelcheck.runs"; "monitor.events"; "monitor.violations";
    "trace.overhead_pct";
  ]

let run ~workload ~seed ~seconds ~mopcd =
  (* sizes are counts, not deadlines, so the exact counts repeat; they
     scale with --seconds and take about that long on a 2-core host at
     the benchmark's 20 s *)
  let size ?(least = 1) full slice =
    let n = if workload = fst full then snd full else slice in
    max least (int_of_float (Float.round (float_of_int n *. seconds /. 20.)))
  in
  let family name f =
    let tr = Spans.create () in
    let t = f tr ~overhead:(name = workload) in
    (name, tr, t)
  in
  let families =
    [
      family "svc-warm" (fun tr ->
          Svc.trace tr ~warm:true ~seed
            ~groups:(size ("svc-warm", 3000) 200) ~mopcd);
      family "svc-cold" (fun tr ->
          Svc.trace tr ~warm:false ~seed
            (* 10 groups of 4 hold the first lattice op *)
            ~groups:(size ~least:10 ("svc-cold", 50) 10) ~mopcd);
      family "vast-walk" (fun tr ->
          Vast.trace tr ~reps:(size ("vast-walk", 3) 1));
      family "monitor-keys" (fun tr ->
          Mon.trace tr ~seed ~keys:(size ("monitor-keys", 100_000) 10_000));
    ]
  in
  (* the named workload's own figures first, then the others' *)
  let home, rest = List.partition (fun (n, _, _) -> n = workload) families in
  let ordered = home @ rest in
  let find name =
    List.find_map
      (fun (_, _, t) ->
        List.find_map
          (fun (n, v, u) -> if n = name then Some (n, v, u) else None)
          t.layers)
      ordered
  in
  let overhead =
    match home with
    | [ (_, _, { overhead_pct = Some o; _ }) ] -> ("trace.overhead_pct", o, "%")
    | _ -> failwith "no tracing overhead measured"
  in
  let metrics =
    List.map
      (fun name ->
        if name = "trace.overhead_pct" then overhead
        else
          match find name with
          | Some m -> m
          | None -> failwith ("layer metric not measured: " ^ name))
      names
  in
  Proc.make_run_dir ();
  List.iter
    (fun (name, tr, _) ->
      Spans.write tr
        (Printf.sprintf "%s/trace-%s-%d-%s.tsv" Proc.run_dir workload seed
           name))
    ordered;
  {
    attempted =
      List.fold_left (fun n (_, _, t) -> n + t.t_attempted) 0 families;
    failed = List.fold_left (fun n (_, _, t) -> n + t.t_failed) 0 families;
    metrics;
  }
