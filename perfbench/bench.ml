(* The benchmark driver: one workload per invocation.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --mopcd PATH --mopc PATH [--commit SHA]

   Prints a fingerprint line, then as its last line one JSON object
   {correct, attempted, failed, metrics}. With --trace 0 the metrics are
   the end-to-end ones, measured untraced; with --trace 1 they are the
   per-layer ones (see Trace). perfbench/run.py builds the binaries and
   passes their paths; run it rather than this executable. *)

open Common

let workloads = [ "svc-warm"; "svc-cold"; "vast-walk"; "monitor-keys" ]

let json_float f =
  if not (Float.is_finite f) then failwith "non-finite metric";
  Printf.sprintf "%.17g" f

let print_result r =
  let metric (name, v, u) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) u
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \
     \"metrics\": {%s}}\n%!"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and mopcd = ref "" and mopc = ref "" in
  let commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--mopcd", Arg.Set_string mopcd, "PATH the daemon binary");
      ("--mopc", Arg.Set_string mopc, "PATH the CLI binary");
      ("--commit", Arg.Set_string commit, "SHA source fingerprint");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline
      ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace must be 0 or 1";
    exit 2
  end;
  Printf.printf
    "{\"fingerprint\": {\"cores\": %d, \"ocaml\": %S, \"commit\": %S, \
     \"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %d}}\n%!"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !commit !workload !seed (json_float !seconds) !trace;
  let seed = !seed and seconds = !seconds and mopcd = !mopcd and mopc = !mopc in
  match
    if !trace = 1 then Trace.run ~workload:!workload ~seed ~seconds ~mopcd
    else
      match !workload with
      | "svc-warm" -> Svc.run_warm ~seed ~seconds ~mopcd
      | "svc-cold" -> Svc.run_cold ~seed ~seconds ~mopcd
      | "vast-walk" -> Vast.run ~seconds ~mopc
      | _ -> Mon.run ~seed ~seconds
  with
  | r -> print_result r
  | exception e ->
      log "%s failed: %s" !workload (Printexc.to_string e);
      exit 1
