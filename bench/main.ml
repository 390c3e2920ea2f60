(* The experiment harness: regenerates every table and figure of the paper
   (see DESIGN.md's experiment index), then runs the quantitative
   Bechamel benchmarks. `dune exec bench/main.exe` prints everything;
   pass `--repro-only`, `--perf-only`, `--par-only`, `--mon-only` or
   `--lat-only` to run a slice.
   `--jobs 1,2,4` sets the B12 sweep points; `--deep` extends its
   universe workload to 4 processes / 4 messages; `--soak` grows the
   B15 monitor stream to a million keys. Any other argument is an error
   (exit 2, with a usage line); `--help` prints the usage. *)

let usage =
  "usage: main.exe [--repro-only | --perf-only | --par-only | --mon-only | \
   --lat-only] [--jobs N,N,...] [--deep] [--soak]"

let flags =
  [
    "--repro-only"; "--perf-only"; "--par-only"; "--mon-only"; "--lat-only";
    "--deep"; "--soak";
  ]

(* the flags given and the --jobs value, if any; anything else prints
   the usage and exits, 0 for --help and 2 otherwise *)
let parse argv =
  let rec go set jobs = function
    | [] -> (set, jobs)
    | "--help" :: _ ->
        print_endline usage;
        exit 0
    | "--jobs" :: v :: rest -> go set (Some v) rest
    | f :: rest when List.mem f flags -> go (f :: set) jobs rest
    | a :: _ ->
        prerr_endline
          (if a = "--jobs" then "bench: --jobs expects a value"
           else "bench: unknown argument " ^ a);
        prerr_endline usage;
        exit 2
  in
  go [] None (List.tl (Array.to_list argv))

let () =
  let args, jobs = parse Sys.argv in
  let mon_only = List.mem "--mon-only" args in
  let lat_only = List.mem "--lat-only" args in
  let solo = mon_only || lat_only in
  let repro =
    (not solo)
    && not (List.mem "--perf-only" args || List.mem "--par-only" args)
  in
  let perf =
    (not solo)
    && not (List.mem "--repro-only" args || List.mem "--par-only" args)
  in
  let deep = List.mem "--deep" args in
  let jobs_list =
    match jobs with
    | None -> [ 1; 2; 4 ]
    | Some v -> (
        match
          String.split_on_char ',' v
          |> List.map (fun s -> int_of_string_opt (String.trim s))
        with
        | js when List.for_all (function Some j -> j >= 1 | None -> false) js
          ->
            List.filter_map Fun.id js
        | _ ->
            prerr_endline "bench: --jobs expects a comma list of positive ints";
            exit 2)
  in
  if repro then begin
    Repro.run_all ();
    (* B10 is deterministic seeded output (and writes BENCH_obs.json), so
       it belongs to the reproduction pass, not the timing pass *)
    Perf.obs_summary ();
    (* B11: fault-overhead accounting, also deterministic (writes
       BENCH_reliab.json) *)
    Reliab.summary ();
    (* B13: decision-cache throughput; its hit/miss accounting is a pure
       function of the seeded stream (writes BENCH_svc.json) *)
    Svc.summary ()
  end;
  (* B17: lattice membership, mask vs reference; the per-model member
     counts are exact artifacts (writes BENCH_lat.json) *)
  if repro || lat_only then Lat.summary ();
  (* B12, B14+B18 and B15 run in every mode: their deterministic outputs
     belong to the reproduction artifacts and their timings to the perf
     sweep. `--soak` grows B15 to the nightly million-key stream. *)
  if not solo then begin
    Par_bench.summary ~deep ~jobs_list ();
    Core_bench.summary ~deep ~jobs_list ()
  end;
  if not lat_only then
    Mon.summary ~soak:(List.mem "--soak" args) ~jobs_list ();
  if perf then Perf.run_all ()
