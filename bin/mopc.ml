(* mopc — message-ordering predicate classifier.

   The command-line frontend to the library: classify forbidden
   predicates, inspect their graphs and witnesses, browse the catalog, and
   run protocol simulations. *)

open Cmdliner
module T = Cmdliner.Term
open Mo_core
open Mo_protocol
open Mo_workload

let parse_pred input =
  match Parse.predicate input with
  | Ok p -> Ok p
  | Error e -> Error (Printf.sprintf "cannot parse %S: %s" input e)

let pred_arg =
  let doc =
    "Forbidden predicate, e.g. \"x.s < y.s & y.r < x.r\". Guards: \
     src(x) = src(y), dst(x) = dst(y), color(x) = <int>."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PREDICATE" ~doc)

(* ---- classify ---- *)

let classify_run explain certificate json lattice input =
  match parse_pred input with
  | Error e ->
      prerr_endline e;
      1
  | Ok pred ->
      if lattice then begin
        (if json then
           print_string
             (Mo_obs.Jsonb.to_string_pretty
                (Mo_service.Codec.lattice_payload pred))
         else
           Format.printf "%a@." Modelcheck.pp_placement
             (Modelcheck.placement ~sizes:Modelcheck.universe_sizes pred));
        0
      end
      else if json then begin
        (* the same payload the mopcd service serves: one builder, two
           surfaces, no drift *)
        print_string
          (Mo_obs.Jsonb.to_string_pretty
             (Mo_service.Codec.classify_payload pred));
        0
      end
      else if certificate then begin
        print_string (Necessity.certificate pred);
        0
      end
      else if explain then begin
        print_string (Classify.explain pred);
        0
      end
      else begin
        let result = Classify.classify pred in
        Format.printf "predicate:       %a@." Forbidden.pp pred;
        Format.printf "classification:  %a@." Classify.pp_result result;
        (match result.Classify.best_cycle with
        | Some cycle when List.length cycle > 2 ->
            Format.printf "@.lemma 4 contraction:@.%a@." Weaken.pp
              (Weaken.contract cycle)
        | _ -> ());
        0
      end

let explain_flag =
  Arg.(
    value & flag
    & info [ "e"; "explain" ]
        ~doc:"print a prose justification citing the paper's theorems")

let certificate_flag =
  Arg.(
    value & flag
    & info [ "c"; "certificate" ]
        ~doc:
          "print concrete refuting runs for the weaker protocol classes \
           (bounded search; slower)")

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "machine-readable output (the canonical predicate, its digest \
           and the verdict) — the exact payload the mopcd service serves")

let lattice_flag =
  Arg.(
    value & flag
    & info [ "lattice" ]
        ~doc:
          "place the specification's run set against the rendez-vous → \
           asynchronous communication-model lattice instead (same output \
           as $(b,mopc lattice))")

let classify_cmd =
  let doc = "classify a forbidden predicate (Theorems 2-4)" in
  Cmd.v
    (Cmd.info "classify" ~doc)
    T.(
      const classify_run $ explain_flag $ certificate_flag $ json_flag
      $ lattice_flag $ pred_arg)

(* ---- graph ---- *)

let graph_run dot input =
  match parse_pred input with
  | Error e ->
      prerr_endline e;
      1
  | Ok pred ->
      let g = Pgraph.of_predicate pred in
      if dot then begin
        let highlight =
          match (Classify.classify pred).Classify.best_cycle with
          | Some c -> c
          | None -> []
        in
        print_string (Pgraph.to_dot ~highlight g);
        0
      end
      else begin
        Format.printf "%a@." Pgraph.pp g;
        let cycles = Cycles.enumerate g in
        if cycles = [] then Format.printf "no cycles: not implementable@."
        else
          List.iter
            (fun c ->
              Format.printf "cycle (order %d, beta vertices {%s}): %a@."
                (Beta.order c)
                (String.concat ","
                   (List.map (fun v -> "x" ^ string_of_int v)
                      (Beta.beta_vertices c)))
                Cycles.pp_cycle c)
            cycles;
        0
      end

let graph_cmd =
  let doc = "print the predicate graph, its cycles and beta vertices" in
  let dot_flag =
    Arg.(
      value & flag
      & info [ "dot" ]
          ~doc:"emit Graphviz source (certificate cycle highlighted)")
  in
  Cmd.v (Cmd.info "graph" ~doc) T.(const graph_run $ dot_flag $ pred_arg)

(* ---- witness ---- *)

let witness_run input =
  match parse_pred input with
  | Error e ->
      prerr_endline e;
      1
  | Ok pred ->
      (match Witness.build pred with
      | Witness.Witness w ->
          print_string (Mo_order.Diagram.render_abstract w.Witness.run);
          Format.printf "limit set: %s@."
            (Mo_order.Limits.cls_to_string
               (Mo_order.Limits.classify w.Witness.run))
      | Witness.Cyclic ->
          Format.printf
            "predicate is unsatisfiable (conjuncts force h > h): the \
             specification is all of X_async@."
      | Witness.Conflicting_guards ->
          Format.printf "guards are unsatisfiable@.");
      0

let witness_cmd =
  let doc = "construct the Theorem 2/4 witness run and locate it" in
  Cmd.v (Cmd.info "witness" ~doc) T.(const witness_run $ pred_arg)

(* ---- catalog ---- *)

let catalog_run () =
  Format.printf "%-22s %-18s %-10s %s@." "name" "classification"
    "exact" "source";
  Format.printf "%s@." (String.make 78 '-');
  List.iter
    (fun (e : Catalog.entry) ->
      let r = Classify.classify e.pred in
      Format.printf "%-22s %-18s %-10b %s@." e.name
        (Classify.verdict_to_string r.Classify.verdict)
        r.Classify.necessity_exact e.source)
    Catalog.all;
  Format.printf "@.multi-predicate specifications:@.";
  List.iter
    (fun (s : Spec.t) ->
      Format.printf "%-22s %-18s %d predicates@." s.Spec.name
        (Classify.verdict_to_string (Spec.classify s))
        (List.length s.Spec.predicates))
    [ Catalog.two_way_flush ];
  Format.printf
    "%-22s %-18s intersection of all crown lengths (Lemma 3.1)@."
    "logically-synchronous" "general";
  0

let catalog_cmd =
  let doc = "list the paper's named specifications with classifications" in
  Cmd.v (Cmd.info "catalog" ~doc) T.(const catalog_run $ const ())

(* ---- show (one catalog entry, in detail) ---- *)

let show_run name =
  match Catalog.find name with
  | None ->
      Format.eprintf "unknown catalog entry %S (try: mopc catalog)@." name;
      1
  | Some e ->
      Format.printf "%s — %s@.source: %s@.@." e.name e.description e.source;
      classify_run false false false false (Forbidden.to_string e.pred)

let show_cmd =
  let doc = "show one catalog entry in detail" in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME")
  in
  Cmd.v (Cmd.info "show" ~doc) T.(const show_run $ name_arg)

(* ---- simulate ---- *)

let protocols =
  [
    ("tagless", Tagless.factory);
    ("fifo", Fifo.factory);
    ("rst", Causal_rst.factory);
    ("ses", Causal_ses.factory);
    ("bss", Causal_bss.factory);
    ("sync", Sync_token.factory);
    ("sync-priority", Sync_priority.factory);
    ("flush", Flush.factory);
    ("to", Total_order.factory);
  ]

let workloads = [ "uniform"; "client-server"; "ring"; "bursty"; "broadcast"; "flood" ]

let make_workload name ~nprocs ~nmsgs ~seed =
  match name with
  | "uniform" -> (Gen.uniform ~nprocs ~nmsgs ~seed).Gen.ops
  | "client-server" -> (Gen.client_server ~nprocs ~nmsgs ~seed).Gen.ops
  | "ring" ->
      (Gen.ring ~nprocs ~rounds:(max 1 (nmsgs / nprocs)) ~seed).Gen.ops
  | "bursty" -> (Gen.bursty ~nprocs ~nmsgs ~seed).Gen.ops
  | "broadcast" ->
      (Gen.broadcast ~nprocs ~nbcasts:(max 1 (nmsgs / (nprocs - 1))) ~seed)
        .Gen.ops
  | "flood" ->
      (Gen.pairwise_flood ~nprocs
         ~per_pair:(max 1 (nmsgs / (nprocs * (nprocs - 1))))
         ~seed)
        .Gen.ops
  | other -> invalid_arg ("unknown workload " ^ other)

let parse_faults spec =
  match Net.parse spec with
  | Ok f -> f
  | Error e ->
      Format.eprintf "bad --faults spec: %s@." e;
      exit 1

let faults_arg =
  Arg.(
    value
    & opt string ""
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "fault injection: comma-separated $(b,drop=N), $(b,dup=N) \
           (permille), $(b,spike=NxF) (permille x latency factor), \
           $(b,part=SRC>DST\\@T1-T2) (directed link partition window), \
           $(b,crash=P\\@T1-T2) (process crash-restart window); part/crash \
           may repeat, e.g. drop=150,part=0>1\\@100-400,crash=2\\@200-500")

let topology_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "topology" ] ~docv:"TOPOLOGY"
        ~doc:
          "multiplex channels over shared transports: $(b,shared) (one \
           transport carries every channel), $(b,per-pair) (a private \
           transport per directed pair), $(b,split2) (two transports, \
           channel SRC>DST rides (SRC+DST) mod 2). FIFO holds within a \
           channel only; a transport fault strikes every channel riding \
           it. Default: the historical per-pair wire, no transport layer")

let transport_faults_arg =
  Arg.(
    value
    & opt string ""
    & info [ "transport-faults" ] ~docv:"SPEC"
        ~doc:
          "transport-domain fault injection (requires $(b,--topology)): \
           comma-separated $(b,stall=T\\@T1-T2) (nothing moves on \
           transport T in the window; arrivals defer to its end), \
           $(b,tpart=T\\@T1-T2) (packets entering T in the window die), \
           $(b,tcrash=T\\@T1-T2) (in-flight and buffered packets lost, \
           per-channel wire seqnos reset); clauses may repeat and may \
           also be given directly in $(b,--faults)")

let parse_topology = function
  | None -> None
  | Some s -> (
      match Transport.topology_of_string s with
      | Ok t -> Some t
      | Error e ->
          Format.eprintf "bad --topology: %s@." e;
          exit 1)

let merge_fault_specs faults_str tfaults_str =
  match (faults_str, tfaults_str) with
  | "", s | s, "" -> s
  | a, b -> a ^ "," ^ b

let check_topology_faults ~topology (faults : Net.t) =
  if faults.Net.transport_faults <> [] && topology = None then begin
    Format.eprintf
      "transport faults (stall/tpart/tcrash) require --topology@.";
    exit 1
  end

let reliable_arg =
  Arg.(
    value & flag
    & info [ "reliable" ]
        ~doc:
          "wrap the protocol in the ack/retransmit recovery layer \
           (per-channel sequence numbers, cumulative acks, exponential \
           backoff); makes it live under --faults without restoring order")

let simulate_run proto wname nprocs nmsgs seed spec_str faults_str
    topology_str tfaults_str reliable diagram trace_out =
  match List.assoc_opt proto protocols with
  | None ->
      Format.eprintf "unknown protocol %S (choose from: %s)@." proto
        (String.concat ", " (List.map fst protocols));
      1
  | Some factory -> (
      let spec =
        match spec_str with
        | None -> None
        | Some s -> (
            match parse_pred s with
            | Ok p -> Some (Spec.make ~name:"cli" [ p ])
            | Error e ->
                prerr_endline e;
                exit 1)
      in
      let ops = make_workload wname ~nprocs ~nmsgs ~seed in
      let faults = parse_faults (merge_fault_specs faults_str tfaults_str) in
      let topology = parse_topology topology_str in
      check_topology_faults ~topology faults;
      let cfg =
        { (Sim.default_config ~nprocs) with Sim.seed; faults; topology }
      in
      let factory = if reliable then Wrap.reliable factory else factory in
      match Conformance.check ?spec cfg factory ops with
      | Error e ->
          Format.eprintf "simulation error: %s@." e;
          1
      | Ok r ->
          Format.printf "%a@." Conformance.pp_report r;
          (match (trace_out, r.Conformance.outcome.Sim.run) with
          | Some path, Some run ->
              Trace_io.write path run;
              Format.printf "trace written to %s@." path
          | Some _, None -> Format.printf "(no complete run to write)@."
          | None, _ -> ());
          (if diagram then
             match r.Conformance.outcome.Sim.run with
             | Some run when Mo_order.Run.nmsgs run <= 30 ->
                 print_string (Mo_order.Diagram.render_run run)
             | Some _ -> Format.printf "(run too large to draw)@."
             | None -> ());
          if r.Conformance.spec_ok = Some false then 2 else 0)

let simulate_cmd =
  let doc = "run a protocol on a workload and check a specification" in
  let proto =
    Arg.(
      value
      & opt string "rst"
      & info [ "p"; "protocol" ] ~docv:"PROTOCOL"
          ~doc:"tagless | fifo | rst | bss | sync | sync-priority | flush | to")
  in
  let wname =
    Arg.(
      value
      & opt string "uniform"
      & info [ "w"; "workload" ] ~docv:"WORKLOAD"
          ~doc:(String.concat " | " workloads))
  in
  let nprocs =
    Arg.(value & opt int 4 & info [ "n"; "nprocs" ] ~docv:"N")
  in
  let nmsgs = Arg.(value & opt int 40 & info [ "m"; "messages" ] ~docv:"M") in
  let seed = Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED") in
  let spec =
    Arg.(
      value
      & opt (some string) None
      & info [ "spec" ] ~docv:"PREDICATE"
          ~doc:"forbidden predicate to check the run against")
  in
  let diagram =
    Arg.(value & flag & info [ "d"; "diagram" ] ~doc:"draw the run")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:"write the recorded run as a monitor-format trace file")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    T.(
      const simulate_run $ proto $ wname $ nprocs $ nmsgs $ seed $ spec
      $ faults_arg $ topology_arg $ transport_faults_arg $ reliable_arg
      $ diagram $ trace_out)

(* ---- stats: run a seeded workload under observability ---- *)

let protocol_aliases =
  [
    ("causal_rst", "rst");
    ("causal_ses", "ses");
    ("causal_bss", "bss");
    ("sync_token", "sync");
    ("sync_priority", "sync-priority");
    ("total_order", "to");
    ("total-order", "to");
  ]

let resolve_protocol name =
  let canonical =
    match List.assoc_opt name protocol_aliases with
    | Some c -> c
    | None -> name
  in
  Option.map (fun f -> (canonical, f)) (List.assoc_opt canonical protocols)

let stats_run proto_spec wname nprocs nmsgs seed faults_str topology_str
    tfaults_str reliable json_out =
  let selected =
    if proto_spec = "all" then Ok protocols
    else
      let names = String.split_on_char ',' proto_spec in
      List.fold_left
        (fun acc n ->
          match (acc, resolve_protocol (String.trim n)) with
          | Error e, _ -> Error e
          | Ok _, None -> Error (String.trim n)
          | Ok l, Some p -> Ok (l @ [ p ]))
        (Ok []) names
  in
  match selected with
  | Error bad ->
      Format.eprintf "unknown protocol %S (choose from: %s, or aliases %s)@."
        bad
        (String.concat ", " (List.map fst protocols))
        (String.concat ", " (List.map fst protocol_aliases));
      1
  | Ok selected ->
      let ops = make_workload wname ~nprocs ~nmsgs ~seed in
      let faults = parse_faults (merge_fault_specs faults_str tfaults_str) in
      let topology = parse_topology topology_str in
      check_topology_faults ~topology faults;
      let cfg =
        { (Sim.default_config ~nprocs) with Sim.seed; faults; topology }
      in
      let rows =
        List.filter_map
          (fun (name, factory) ->
            (* one registry per protocol run: the recovery layer's net.*
               metrics land next to the sim.*/proto.* ones *)
            let registry = Mo_obs.Metrics.create () in
            let factory =
              if reliable then Wrap.reliable ~registry factory else factory
            in
            match Observe.run ~config:cfg ~registry factory ops with
            | Error e ->
                Format.eprintf "%s: simulation error: %s@." name e;
                None
            | Ok (registry, _outcome) ->
                Some (Observe.report_row registry ~factory))
          selected
      in
      if rows = [] then 1
      else begin
        Format.printf
          "workload %s: %d processes, %d messages, seed %d@.@." wname nprocs
          nmsgs seed;
        Format.printf "%a@." Mo_obs.Report.pp_comparison rows;
        (match rows with
        | [ row ] -> Format.printf "%a@." Mo_obs.Report.pp_registry row
        | _ -> ());
        (match json_out with
        | None -> ()
        | Some path ->
            let meta =
              Mo_obs.Jsonb.Obj
                [
                  ("name", Mo_obs.Jsonb.String wname);
                  ("nprocs", Mo_obs.Jsonb.Int nprocs);
                  ("nmsgs", Mo_obs.Jsonb.Int nmsgs);
                  ("seed", Mo_obs.Jsonb.Int seed);
                ]
            in
            let json =
              match Mo_obs.Report.to_json rows with
              | Mo_obs.Jsonb.Obj fields ->
                  Mo_obs.Jsonb.Obj (("workload", meta) :: fields)
              | j -> j
            in
            let text = Mo_obs.Jsonb.to_string_pretty json in
            if path = "-" then print_string text
            else begin
              let oc = open_out path in
              output_string oc text;
              close_out oc;
              Format.printf "metrics written to %s@." path
            end);
        0
      end

let stats_cmd =
  let doc =
    "run a seeded workload under one or more protocols and print the \
     observability metrics (tag bytes, control traffic, inhibition time, \
     delivery delay, queue depth) — the paper's class hierarchy as measured \
     costs"
  in
  let proto =
    Arg.(
      value
      & opt string "all"
      & info [ "p"; "protocol" ] ~docv:"PROTOCOL"
          ~doc:
            "protocol name, comma-separated list, or 'all'; accepts the \
             simulate names plus aliases like causal_rst, sync_token, \
             total_order")
  in
  let wname =
    Arg.(
      value
      & opt string "uniform"
      & info [ "w"; "workload" ] ~docv:"WORKLOAD"
          ~doc:(String.concat " | " workloads))
  in
  let nprocs = Arg.(value & opt int 4 & info [ "n"; "nprocs" ] ~docv:"N") in
  let nmsgs = Arg.(value & opt int 100 & info [ "m"; "messages" ] ~docv:"M") in
  let seed = Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED") in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"write the metrics as JSON ('-' for stdout)")
  in
  Cmd.v
    (Cmd.info "stats" ~doc)
    T.(
      const stats_run $ proto $ wname $ nprocs $ nmsgs $ seed $ faults_arg
      $ topology_arg $ transport_faults_arg $ reliable_arg $ json_out)

(* ---- synth ---- *)

let synth_run input =
  match parse_pred input with
  | Error e ->
      prerr_endline e;
      1
  | Ok pred -> (
      match Synth.for_predicate pred with
      | Error e ->
          Format.printf "not implementable: %s@." e;
          2
      | Ok (factory, result) ->
          Format.printf "classification: %s@."
            (Classify.verdict_to_string result.Classify.verdict);
          Format.printf "universal:      %s (%s)@."
            factory.Protocol.proto_name
            (Protocol.kind_to_string factory.Protocol.kind);
          (match Synth.optimize ~result pred with
          | Ok c when c.Synth.factory.Protocol.proto_name <> factory.Protocol.proto_name ->
              Format.printf "optimized:      %s — %s@."
                c.Synth.factory.Protocol.proto_name c.Synth.rationale
          | Ok c -> Format.printf "optimized:      (same) %s@." c.Synth.rationale
          | Error _ -> ());
          0)

let synth_cmd =
  let doc = "pick the weakest protocol class implementing a predicate" in
  Cmd.v (Cmd.info "synth" ~doc) T.(const synth_run $ pred_arg)

(* ---- implies: specification containment ---- *)

let implies_run json input1 input2 =
  match (parse_pred input1, parse_pred input2) with
  | Error e, _ | _, Error e ->
      prerr_endline e;
      1
  | Ok b, Ok b' when json ->
      print_string
        (Mo_obs.Jsonb.to_string_pretty
           (Mo_service.Codec.implies_payload b b'));
      0
  | Ok b, Ok b' ->
      let fwd = Implies.check b b' and bwd = Implies.check b' b in
      Format.printf "B  = %a@.B' = %a@." Forbidden.pp b Forbidden.pp b';
      Format.printf "B ⟹ B': %b    B' ⟹ B: %b@." fwd bwd;
      (match Implies.compare_specs b b' with
      | `Equivalent -> Format.printf "the specifications are equivalent@."
      | `Weaker ->
          Format.printf
            "X_B' ⊂ X_B: the second specification is stronger (forbids \
             more); a protocol for it also implements the first@."
      | `Stronger ->
          Format.printf
            "X_B ⊂ X_B': the first specification is stronger; a protocol \
             for it also implements the second@."
      | `Incomparable -> Format.printf "the specifications are incomparable@.");
      0

let implies_cmd =
  let doc =
    "decide implication between two forbidden predicates (specification \
     containment, via the canonical witness)"
  in
  let p1 = Arg.(required & pos 0 (some string) None & info [] ~docv:"B") in
  let p2 = Arg.(required & pos 1 (some string) None & info [] ~docv:"B'") in
  Cmd.v (Cmd.info "implies" ~doc) T.(const implies_run $ json_flag $ p1 $ p2)

(* ---- batch: classify a file of predicates ---- *)

let batch_run path =
  let ic = if path = "-" then stdin else open_in path in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file ->
        if path <> "-" then close_in ic;
        List.rev acc
  in
  let entries =
    List.filteri
      (fun _ l ->
        let l = String.trim l in
        l <> "" && l.[0] <> '#')
      (lines [])
  in
  Format.printf "%-44s %-18s %s@." "predicate" "classification"
    "optimized protocol";
  Format.printf "%s@." (String.make 78 '-');
  let failures = ref 0 in
  List.iter
    (fun line ->
      match parse_pred (String.trim line) with
      | Error e ->
          incr failures;
          Format.printf "%-44s parse error: %s@." (String.trim line) e
      | Ok pred ->
          let r = Classify.classify pred in
          let proto =
            match Synth.optimize ~result:r pred with
            | Ok c -> c.Synth.factory.Protocol.proto_name
            | Error _ -> "-"
          in
          Format.printf "%-44s %-18s %s@."
            (Forbidden.to_string pred)
            (Classify.verdict_to_string r.Classify.verdict)
            proto)
    entries;
  if !failures = 0 then 0 else 1

let batch_cmd =
  let doc =
    "classify every predicate in a file (one per line, '#' comments, '-' \
     for stdin) and show the optimized protocol choice"
  in
  let path_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  Cmd.v (Cmd.info "batch" ~doc) T.(const batch_run $ path_arg)

(* ---- monitor: stream a trace file through the online checkers ---- *)

let read_trace_text path =
  if path = "-" then Ok (In_channel.input_all stdin)
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | text -> Ok text
    | exception Sys_error e -> Error e

(* the fixed checks: FIFO + causal as events arrive, SYNC at the end *)
let monitor_fixed diagram text =
  match Trace_io.parse_prefix text with
  | Error e ->
      prerr_endline (Trace_io.error_to_string e);
      1
  | Ok p ->
      let max_id =
        List.fold_left
          (fun acc ev ->
            match ev with `Send (m, _, _, _) | `Deliver m -> max acc m)
          (-1) p.Trace_io.p_events
      in
      let t =
        Mo_order.Online.create ~nprocs:p.Trace_io.p_nprocs
          ~nmsgs:(max_id + 1)
      in
      let nviolations = ref 0 in
      List.iter
        (fun ev ->
          match ev with
          | `Send (msg, src, dst, _) -> Mo_order.Online.send t ~msg ~src ~dst
          | `Deliver msg ->
              List.iter
                (fun (v : Mo_order.Online.violation) ->
                  incr nviolations;
                  let src, dst = v.channel in
                  Format.printf
                    "%s violation at event %d: x%d overtook x%d on channel \
                     %d->%d@."
                    (match v.kind with `Fifo -> "FIFO" | `Causal -> "causal")
                    v.at v.later v.earlier src dst)
                (Mo_order.Online.deliver t ~msg))
        p.Trace_io.p_events;
      (match Mo_order.Online.finalize_sync t with
      | Ok _ -> Format.printf "logically synchronous: yes@."
      | Error cycle ->
          Format.printf "logically synchronous: no (crown through {%s})@."
            (String.concat "," (List.map string_of_int cycle)));
      Format.printf "violations: %d@." !nviolations;
      (if diagram then
         match Trace_io.parse text with
         | Ok run -> print_string (Mo_order.Diagram.render_run run)
         | Error e ->
             Format.printf "(cannot draw: %s)@."
               (Trace_io.error_to_string e));
      if !nviolations = 0 then 0 else 2

(* a compiled monitor for one forbidden predicate over the same stream *)
let monitor_pred input window text =
  match parse_pred input with
  | Error e ->
      prerr_endline e;
      1
  | Ok pred -> (
      match Trace_io.parse_prefix text with
      | Error e ->
          prerr_endline (Trace_io.error_to_string e);
          1
      | Ok p -> (
          let window =
            match window with
            | Some w -> w
            | None -> Mo_order.Monitor.max_window
          in
          let feed () =
            let t =
              Mo_core.Pmon.create ~window
                ~nprocs:(max p.Trace_io.p_nprocs 1)
                (Eval.compile pred)
            in
            List.iter
              (fun ev ->
                match ev with
                | `Send (msg, src, dst, color) ->
                    ignore (Mo_core.Pmon.send t ~msg ~src ~dst ?color ())
                | `Deliver msg -> ignore (Mo_core.Pmon.deliver t ~msg))
              p.Trace_io.p_events;
            t
          in
          match feed () with
          | exception Invalid_argument e ->
              prerr_endline e;
              1
          | t ->
              let m = Mo_core.Pmon.monitor t in
              Format.printf "events: %d  pending: %d  frontier: %d bytes@."
                (Mo_order.Monitor.events m)
                (Mo_order.Monitor.pending m)
                (Mo_order.Monitor.frontier_bytes m);
              (match Mo_core.Pmon.verdict t with
              | None ->
                  Format.printf "no violation@.";
                  0
              | Some v ->
                  Format.printf
                    "violation at event %d: %s with {%s}@." v.Mo_core.Pmon.at
                    (Forbidden.to_string pred)
                    (String.concat ", "
                       (Array.to_list
                          (Array.mapi
                             (fun i m -> Printf.sprintf "x%d=%d" i m)
                             v.Mo_core.Pmon.witness)));
                  2)))

let monitor_run diagram pred window path =
  match read_trace_text path with
  | Error e ->
      prerr_endline e;
      1
  | Ok text -> (
      match pred with
      | None -> monitor_fixed diagram text
      | Some input -> monitor_pred input window text)

let monitor_cmd =
  let doc =
    "stream a trace file ('send <msg> <src> <dst> [color]' / 'deliver \
     <msg>', one per line, '#' comments, '-' for stdin) through the \
     online monitors: the fixed FIFO/causal/SYNC checks by default, or a \
     compiled monitor for an arbitrary forbidden predicate with \
     $(b,--pred). Exits 2 when a violation is found."
  in
  let path_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE")
  in
  let diagram_flag =
    Arg.(value & flag & info [ "d"; "diagram" ] ~doc:"draw the trace")
  in
  let pred_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "p"; "pred" ] ~docv:"PREDICATE"
          ~doc:
            "monitor this forbidden predicate instead of the fixed checks; \
             detection fires at the earliest event that makes a match \
             unavoidable")
  in
  let window_opt =
    Arg.(
      value
      & opt (some int) None
      & info [ "window" ] ~docv:"N"
          ~doc:
            "retire delivered messages beyond the most recent N (bounded \
             memory; only used with $(b,--pred), default the maximum)")
  in
  Cmd.v (Cmd.info "monitor" ~doc)
    T.(const monitor_run $ diagram_flag $ pred_opt $ window_opt $ path_arg)

(* ---- universe: parallel model checking of the Lemma 3 identities ---- *)

let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "worker domains for the parallel engine; 0 means the default \
           (the $(b,MO_JOBS) variable, else one per core). Results are \
           identical for every N.")

let make_pool jobs =
  if jobs < 0 then begin
    Format.eprintf "--jobs must be >= 0@.";
    exit 1
  end
  else if jobs = 0 then Mo_par.Pool.create ()
  else Mo_par.Pool.create ~jobs ()

let universe_run deep vast sym jobs =
  let pool = make_pool jobs in
  let sizes =
    if vast then Modelcheck.vast_sizes
    else if deep then Modelcheck.deep_sizes
    else Modelcheck.standard_sizes
  in
  Format.printf "sizes (procs,msgs): %s   jobs: %d%s@."
    (String.concat " "
       (List.map (fun (p, m) -> Printf.sprintf "(%d,%d)" p m) sizes))
    (Mo_par.Pool.jobs pool)
    (if sym then "   sym: orbit representatives" else "");
  let v = Modelcheck.verify ~pool ~sym ~sizes () in
  Format.printf "%a@." Modelcheck.pp_verdict v;
  if Modelcheck.ok v then 0 else 2

let sym_flag =
  Arg.(
    value & flag
    & info [ "sym" ]
        ~doc:
          "enumerate one canonical representative per process/message \
           symmetry orbit and expand counts by exact orbit sizes; \
           verdicts and counts are byte-identical to the concrete \
           enumeration, the wall time is not")

let universe_cmd =
  let doc =
    "enumerate every run at the paper's sizes and verify X_sync ⊆ X_co ⊆ \
     X_async and the Lemma 3.2/3.3 identities (parallel over message \
     configurations)"
  in
  let deep =
    Arg.(
      value & flag
      & info [ "deep" ]
          ~doc:
            "extend the universe to 4 processes / 4 messages (millions of \
             runs; use with --jobs)")
  in
  let vast =
    Arg.(
      value & flag
      & info [ "vast" ]
          ~doc:
            "extend the universe to 5 processes / 5 messages (77.8 million \
             runs, ~83x --deep; intended with $(b,--sym), which walks only \
             the ~31,700 orbit representatives)")
  in
  Cmd.v (Cmd.info "universe" ~doc)
    T.(const universe_run $ deep $ vast $ sym_flag $ jobs_arg)

(* ---- lattice: place a spec against the communication-model lattice ---- *)

let lattice_run json kmax sym jobs input =
  match parse_pred input with
  | Error e ->
      prerr_endline e;
      1
  | Ok pred ->
      if kmax < 1 || kmax > Mo_service.Codec.max_kmax then begin
        Format.eprintf "--kmax must be in 1..%d@." Mo_service.Codec.max_kmax;
        1
      end
      else if json then begin
        (* the exact payload the mopcd [lattice] op serves: one builder,
           two surfaces, no drift *)
        print_string
          (Mo_obs.Jsonb.to_string_pretty
             (Mo_service.Codec.lattice_payload ~kmax ~sym pred));
        0
      end
      else begin
        let pool = make_pool jobs in
        Format.printf "%a@." Modelcheck.pp_placement
          (Modelcheck.placement ~pool ~kmax ~sym
             ~sizes:Modelcheck.universe_sizes pred);
        0
      end

let lattice_cmd =
  let doc =
    "place a specification against every point of the rendez-vous → \
     asynchronous communication-model lattice (RSC, k-synchronous, \
     one-queue FIFO, causal, mailbox/inverse-mailbox/channel FIFO, \
     async) over the enumerated universe"
  in
  let kmax =
    Arg.(
      value
      & opt int 3
      & info [ "kmax" ] ~docv:"K"
          ~doc:
            "largest k-synchronous point swept, at most 64; honored by \
             $(b,--json) too (the service payload carries its kmax, and \
             mopcd caches per kmax)")
  in
  Cmd.v (Cmd.info "lattice" ~doc)
    T.(const lattice_run $ json_flag $ kmax $ sym_flag $ jobs_arg $ pred_arg)

(* ---- explore: exhaustive schedule exploration of one protocol ---- *)

let explore_run proto wname nprocs nmsgs seed max_execs jobs =
  match List.assoc_opt proto protocols with
  | None ->
      Format.eprintf "unknown protocol %S (choose from: %s)@." proto
        (String.concat ", " (List.map fst protocols));
      1
  | Some factory -> (
      let pool = make_pool jobs in
      let ops = make_workload wname ~nprocs ~nmsgs ~seed in
      match
        Explore.distinct_user_views_par ~pool ~max_executions:max_execs
          ~nprocs factory ops
      with
      | Error e ->
          Format.eprintf "protocol misbehaviour: %s@." e;
          1
      | Ok (views, stats) ->
          let classes = Hashtbl.create 8 in
          List.iter
            (fun r ->
              let c =
                Mo_order.Limits.cls_to_string
                  (Mo_order.Limits.classify (Mo_order.Run.to_abstract r))
              in
              Hashtbl.replace classes c
                (1 + Option.value ~default:0 (Hashtbl.find_opt classes c)))
            views;
          Format.printf
            "%s on %s (%d procs, %d msgs, seed %d): %d executions%s, %d \
             distinct user views@."
            proto wname nprocs nmsgs seed stats.Explore.executions
            (if stats.Explore.truncated then " (truncated)" else "")
            (List.length views);
          Hashtbl.fold (fun c n acc -> (c, n) :: acc) classes []
          |> List.sort compare
          |> List.iter (fun (c, n) ->
                 Format.printf "  %4d views in %s@." n c);
          0)

let explore_cmd =
  let doc =
    "enumerate every network schedule of a small workload under a \
     protocol and bucket the distinct user views by limit set (parallel \
     over schedule subtrees)"
  in
  let proto =
    Arg.(
      value
      & opt string "fifo"
      & info [ "p"; "protocol" ] ~docv:"PROTOCOL"
          ~doc:"tagless | fifo | rst | ses | bss | sync | sync-priority | \
                flush | to")
  in
  let wname =
    Arg.(
      value
      & opt string "uniform"
      & info [ "w"; "workload" ] ~docv:"WORKLOAD"
          ~doc:(String.concat " | " workloads))
  in
  let nprocs = Arg.(value & opt int 2 & info [ "n"; "nprocs" ] ~docv:"N") in
  let nmsgs = Arg.(value & opt int 3 & info [ "m"; "messages" ] ~docv:"M") in
  let seed = Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED") in
  let max_execs =
    Arg.(
      value
      & opt int 200_000
      & info [ "max" ] ~docv:"K"
          ~doc:"truncate the search after K complete executions")
  in
  Cmd.v
    (Cmd.info "explore" ~doc)
    T.(
      const explore_run $ proto $ wname $ nprocs $ nmsgs $ seed $ max_execs
      $ jobs_arg)

(* ---- query: client for the mopcd service ---- *)

let query_request op args =
  let open Mo_service.Codec in
  let pred s = Result.map_error (fun e -> e) (parse_pred s) in
  match (op, args) with
  | "classify", [ p ] -> Result.map (fun p -> Classify p) (pred p)
  | "witness", [ p ] -> Result.map (fun p -> Witness p) (pred p)
  | "lattice", [ p ] -> Result.map (fun p -> Lattice (p, None)) (pred p)
  | "lattice", [ p; k ] -> (
      match int_of_string_opt k with
      | Some k when k >= 1 ->
          Result.map (fun p -> Lattice (p, Some k)) (pred p)
      | _ -> Error "lattice KMAX must be an integer >= 1")
  | "implies", [ a; b ] ->
      Result.bind (pred a) (fun a ->
          Result.map (fun b -> Implies (a, b)) (pred b))
  | "minimize", (_ :: _ as ps) ->
      List.fold_left
        (fun acc s ->
          Result.bind acc (fun l ->
              Result.map (fun p -> p :: l) (pred s)))
        (Ok []) ps
      |> Result.map (fun l -> Minimize (List.rev l))
  | "stats", [] -> Ok Stats
  | "shutdown", [] -> Ok Shutdown
  | "monitor", [ p; path ] ->
      Result.bind (pred p) (fun p ->
          match read_trace_text path with
          | Ok trace -> Ok (Monitor (p, trace, None))
          | Error e -> Error e)
  | "classify", _ | "witness", _ -> Error (op ^ " takes one PREDICATE")
  | "lattice", _ -> Error "lattice takes a PREDICATE and an optional KMAX"
  | "implies", _ -> Error "implies takes two predicates"
  | "minimize", _ -> Error "minimize takes at least one predicate"
  | "monitor", _ -> Error "monitor takes a PREDICATE and a TRACE file"
  | ("stats" | "shutdown"), _ -> Error (op ^ " takes no arguments")
  | _ ->
      Error
        (Printf.sprintf
           "unknown op %S (classify | implies | minimize | witness | \
            lattice | monitor | stats | shutdown)"
           op)

let parse_host_port spec =
  match String.rindex_opt spec ':' with
  | None -> Error (Printf.sprintf "expected HOST:PORT, got %S" spec)
  | Some i -> (
      let host = String.sub spec 0 i in
      let port = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p <= 65535 ->
          Ok ((if host = "" then "127.0.0.1" else host), p)
      | _ -> Error (Printf.sprintf "bad port %S" port))

let query_run socket tcp deadline_ms op args =
  let addr =
    match tcp with
    | None -> Ok (Mo_service.Client.Uds socket)
    | Some spec ->
        Result.map
          (fun (h, p) -> Mo_service.Client.Tcp (h, p))
          (parse_host_port spec)
  in
  match Result.bind addr (fun addr -> Result.map (fun req -> (addr, req)) (query_request op args)) with
  | Error e ->
      prerr_endline e;
      1
  | Ok (addr, req) -> (
      match Mo_service.Client.connect_addr addr with
      | Error e ->
          prerr_endline e;
          1
      | Ok client ->
          let r = Mo_service.Client.call client ?deadline_ms req in
          Mo_service.Client.close client;
          (match r with
          | Ok payload ->
              print_string (Mo_obs.Jsonb.to_string_pretty payload);
              0
          | Error e ->
              prerr_endline ("query failed: " ^ e);
              1))

let query_cmd =
  let doc =
    "query a running mopcd service (classify | implies | minimize | \
     witness | lattice | monitor | stats | shutdown) and print the JSON \
     result"
  in
  let socket =
    Arg.(
      value
      & opt string "mopcd.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc:"mopcd socket path")
  in
  let tcp =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:"query a TCP daemon instead of the Unix-domain socket")
  in
  let deadline =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"per-request deadline enforced by the server")
  in
  let op_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OP")
  in
  let rest_args =
    Arg.(value & pos_right 0 string [] & info [] ~docv:"ARG")
  in
  Cmd.v
    (Cmd.info "query" ~doc)
    T.(const query_run $ socket $ tcp $ deadline $ op_arg $ rest_args)

let main_cmd =
  let doc = "message ordering specifications and protocols (Murty & Garg)" in
  Cmd.group
    (Cmd.info "mopc" ~version:"1.0.0" ~doc)
    [
      classify_cmd;
      graph_cmd;
      witness_cmd;
      catalog_cmd;
      show_cmd;
      simulate_cmd;
      stats_cmd;
      synth_cmd;
      implies_cmd;
      batch_cmd;
      monitor_cmd;
      universe_cmd;
      lattice_cmd;
      explore_cmd;
      query_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
