(* The symmetry-quotiented enumeration (DESIGN.md §3j), verified
   differentially against the concrete kernel.

   - configs_quotient (the oracle) / configs_sym: multiplicity-expanded
     config and run counts equal the unquotiented enumeration's on every
     standard size, and every representative is a member of the orbit it
     names;
   - Enumerate.configs_sym (the orbit walk) equals the
     canonicalise-per-config Oracle.configs_sym list, order included,
     on the universe tier with and without self-addressed messages and
     on the vast tier without them; its edge cases (no messages, one
     process) are pinned and the packed-key overflow guard raises;
   - count_runs_sym = count_runs on every configuration;
   - orbit-expanded per-predicate violation counts and limit-set counts
     from fold_abstracts_sym (with and without decided-subtree pruning)
     equal the concrete enumeration's, for every Catalog predicate,
     exhaustively over the standard tier;
   - Modelcheck verify / count / placement produce byte-identical
     verdicts with --sym on and off, at jobs 1/2/4/7;
   - mopcd's lattice payload (quotiented) is byte-identical to the one
     rendered from the concrete walk, for every catalog predicate and
     seeded random predicates;
   - MO_SYM_DEEP=1 (nightly) extends the verify differential to the
     940,304-run deep tier, pins the 77,830,564-run vast tier's
     orbit-expanded cardinalities, widens the lattice payload
     differential to every catalog predicate and 200 random ones at
     kmax 1-4 and 6, and checks configs_sym against the oracle on the vast
     tier with self-addressed messages. *)

open Mo_core
open Mo_order

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let deep = Sys.getenv_opt "MO_SYM_DEEP" <> None

let sizes_all = (4, 2) :: Modelcheck.standard_sizes

(* ---- reference config quotients ----------------------------------- *)

(* The canonicalise-per-config quotients, kept as oracles for
   Enumerate.configs_sym: every config tries every process renaming and
   keeps the lex-least result, and configs are grouped by that key in
   first-seen order. *)
module Oracle = struct
  let proc_perms nprocs =
    List.map Array.of_list (Enumerate.permutations (List.init nprocs Fun.id))

  let rename_config pi msgs = Array.map (fun (s, d) -> (pi.(s), pi.(d))) msgs

  (* group a (config, weight) stream by canonical key, preserving
     first-seen order *)
  let group_by_canon canon stream =
    let counts = Hashtbl.create 97 in
    let order = ref [] in
    List.iter
      (fun (msgs, w) ->
        let key = canon msgs in
        match Hashtbl.find_opt counts key with
        | None ->
            Hashtbl.add counts key w;
            order := key :: !order
        | Some n -> Hashtbl.replace counts key (n + w))
      stream;
    List.rev_map (fun key -> (key, Hashtbl.find counts key)) !order

  (* quotient by process renaming only; representative = lex-least
     renamed config, multiplicity = orbit size among ordered configs *)
  let configs_quotient ?allow_self ~nprocs ~nmsgs () =
    let perms = proc_perms nprocs in
    let canon msgs =
      List.fold_left
        (fun best pi ->
          let c = rename_config pi msgs in
          match best with Some b when compare b c <= 0 -> best | _ -> Some c)
        None perms
      |> Option.get
    in
    group_by_canon canon
      (List.map
         (fun c -> (c, 1))
         (Enumerate.configs ?allow_self ~nprocs ~nmsgs ()))

  (* all sorted configs (non-decreasing endpoint pairs) with the count of
     ordered configs each stands for: nmsgs!/∏(run lengths!) *)
  let sorted_configs ?(allow_self = false) ~nprocs ~nmsgs () =
    let endpoints =
      List.concat_map
        (fun s -> List.init nprocs (fun d -> (s, d)))
        (List.init nprocs Fun.id)
      |> List.filter (fun (s, d) -> allow_self || s <> d)
      |> Array.of_list
    in
    let ne = Array.length endpoints in
    let fact = Array.make (nmsgs + 1) 1 in
    for i = 1 to nmsgs do
      fact.(i) <- fact.(i - 1) * i
    done;
    if nmsgs = 0 then [ ([||], 1) ]
    else begin
      let acc = ref [] in
      let idx = Array.make nmsgs 0 in
      let rec go k lo =
        if k = nmsgs then begin
          let mult = ref fact.(nmsgs) in
          let i = ref 0 in
          while !i < nmsgs do
            let j = ref !i in
            while !j < nmsgs && idx.(!j) = idx.(!i) do
              incr j
            done;
            mult := !mult / fact.(!j - !i);
            i := !j
          done;
          acc := (Array.map (fun i -> endpoints.(i)) idx, !mult) :: !acc
        end
        else
          for e = lo to ne - 1 do
            idx.(k) <- e;
            go (k + 1) e
          done
      in
      go 0 0;
      List.rev !acc
    end

  (* quotient by process renaming × message reorder; representative =
     lex-least sorted renamed config, multiplicity = number of ordered
     configs whose run sets are isomorphic to the representative's *)
  let configs_sym ?allow_self ~nprocs ~nmsgs () =
    let perms = proc_perms nprocs in
    let canon msgs =
      List.fold_left
        (fun best pi ->
          let c = rename_config pi msgs in
          Array.sort compare c;
          match best with Some b when compare b c <= 0 -> best | _ -> Some c)
        None perms
      |> Option.get
    in
    group_by_canon canon (sorted_configs ?allow_self ~nprocs ~nmsgs ())
end

(* ---- config quotients --------------------------------------------- *)

let test_configs_quotient () =
  List.iter
    (fun (nprocs, nmsgs) ->
      let label fmt = Printf.sprintf fmt nprocs nmsgs in
      let cfgs = Enumerate.configs ~nprocs ~nmsgs () in
      let runs_of msgs = Enumerate.count_runs ~nprocs ~msgs in
      let total_runs = List.fold_left (fun a c -> a + runs_of c) 0 cfgs in
      let expand q = List.fold_left (fun a (_, m) -> a + m) 0 q in
      let expand_runs q =
        List.fold_left (fun a (c, m) -> a + (m * runs_of c)) 0 q
      in
      let q = Oracle.configs_quotient ~nprocs ~nmsgs () in
      check_int
        (label "(%d,%d) quotient multiplicities expand to the config count")
        (List.length cfgs) (expand q);
      check_int
        (label "(%d,%d) quotient orbit-expanded run count")
        total_runs (expand_runs q);
      List.iter
        (fun (rep, _) ->
          check_bool (label "(%d,%d) quotient rep is a real config") true
            (List.mem rep cfgs))
        q;
      let s = Enumerate.configs_sym ~nprocs ~nmsgs () in
      check_int
        (label "(%d,%d) sym multiplicities expand to the config count")
        (List.length cfgs) (expand s);
      check_int
        (label "(%d,%d) sym orbit-expanded run count")
        total_runs (expand_runs s);
      List.iter
        (fun (rep, _) ->
          check_bool (label "(%d,%d) sym rep is a real config") true
            (List.mem rep cfgs))
        s;
      check_bool
        (label "(%d,%d) sym quotient is at least as coarse")
        true
        (List.length s <= List.length q))
    sizes_all

(* the orbit walk returns the oracle's list exactly: same
   representatives, same multiplicities, same first-seen order *)
let test_configs_sym_oracle () =
  let sweep =
    List.map (fun s -> (s, false)) Modelcheck.universe_sizes
    @ List.map (fun s -> (s, true)) Modelcheck.universe_sizes
    @ List.map (fun s -> (s, false)) Modelcheck.vast_sizes
    @ if deep then List.map (fun s -> (s, true)) Modelcheck.vast_sizes else []
  in
  List.iter
    (fun ((nprocs, nmsgs), allow_self) ->
      check_bool
        (Printf.sprintf "(%d,%d) allow_self %b: configs_sym = oracle" nprocs
           nmsgs allow_self)
        true
        (Enumerate.configs_sym ~allow_self ~nprocs ~nmsgs ()
        = Oracle.configs_sym ~allow_self ~nprocs ~nmsgs ()))
    sweep

let test_configs_sym_edges () =
  let pin ~allow_self ~nprocs ~nmsgs want =
    let label =
      Printf.sprintf "(%d,%d) allow_self %b" nprocs nmsgs allow_self
    in
    let got = Enumerate.configs_sym ~allow_self ~nprocs ~nmsgs () in
    check_bool (label ^ ": pinned") true (got = want);
    check_bool (label ^ ": = oracle") true
      (got = Oracle.configs_sym ~allow_self ~nprocs ~nmsgs ())
  in
  List.iter
    (fun (nprocs, allow_self) -> pin ~allow_self ~nprocs ~nmsgs:0 [ ([||], 1) ])
    [ (1, false); (1, true); (3, false); (3, true) ];
  List.iter
    (fun nmsgs ->
      pin ~allow_self:false ~nprocs:1 ~nmsgs [];
      pin ~allow_self:true ~nprocs:1 ~nmsgs [ (Array.make nmsgs (0, 0), 1) ])
    [ 1; 2; 3 ];
  (* the packed key holds (nprocs^2)^nmsgs values; past max_int the
     walk refuses instead of returning a wrong quotient *)
  List.iter
    (fun (nprocs, nmsgs) ->
      check_bool
        (Printf.sprintf "(%d,%d): key overflow raises" nprocs nmsgs)
        true
        (match Enumerate.configs_sym ~nprocs ~nmsgs () with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ (2, 31); (5, 14); (4, 16) ];
  (* 4^30 < max_int < 4^31: (2,30) is the widest 2-process key; its 31
     sorted configs pair up as k <-> 30-k copies of (0,1). Its weights
     pass through 30!, which overflows, so only representatives are
     compared. *)
  check_bool "(2,30): widest 2-process key, representatives = oracle" true
    (List.map fst (Enumerate.configs_sym ~nprocs:2 ~nmsgs:30 ())
    = List.map fst (Oracle.configs_sym ~nprocs:2 ~nmsgs:30 ()));
  check_int "(2,30): 16 orbits" 16
    (List.length (Enumerate.configs_sym ~nprocs:2 ~nmsgs:30 ()))

let test_count_runs_sym () =
  List.iter
    (fun (nprocs, nmsgs) ->
      List.iter
        (fun msgs ->
          check_int "count_runs_sym equals count_runs"
            (Enumerate.count_runs ~nprocs ~msgs)
            (Enumerate.count_runs_sym ~nprocs ~msgs))
        (Enumerate.configs ~nprocs ~nmsgs ()))
    sizes_all

(* ---- orbit-expanded verdict counts, every catalog predicate -------- *)

(* violations (holds_c) and limit members counted three ways: concrete,
   sym, and sym with the decided-subtree prune driven by the predicate
   itself — all must agree exactly *)
let test_verdict_counts () =
  let plans =
    List.map
      (fun (e : Catalog.entry) -> (e.Catalog.name, Eval.compile e.Catalog.pred))
      Catalog.all
  in
  List.iter
    (fun (nprocs, nmsgs) ->
      let concrete =
        List.fold_left
          (fun acc msgs ->
            Enumerate.fold_abstracts ~nprocs ~msgs ~init:acc
              ~f:(fun (viols, causal) a ->
                ( List.map2
                    (fun v (_, plan) ->
                      if Eval.holds_c plan a then v + 1 else v)
                    viols plans,
                  (causal + if Limits.is_causal a then 1 else 0) )))
          (List.map (fun _ -> 0) plans, 0)
          (Enumerate.configs ~nprocs ~nmsgs ())
      in
      let sym_arm ~prune () =
        List.fold_left
          (fun acc (msgs, cmult) ->
            let mult = cmult * Enumerate.sym_mult ~msgs in
            let weigh (viols, causal) w a =
              ( List.map2
                  (fun v (_, plan) ->
                    if Eval.holds_c plan a then v + w else v)
                  viols plans,
                (causal + if Limits.is_causal a then w else 0) )
            in
            if prune then
              (* prune on full decision: every plan's pattern matched and
                 causality broken — then each pruned run adds mult to
                 every violation tally and nothing to the causal one *)
              let decided a =
                (not (Limits.is_causal a))
                && List.for_all (fun (_, plan) -> Eval.holds_c plan a) plans
              in
              let on_pruned (viols, causal) ~runs _a =
                (List.map (fun v -> v + (mult * runs)) viols, causal)
              in
              Enumerate.fold_abstracts_sym ~nprocs ~msgs
                ~prune:(decided, on_pruned) ~init:acc
                ~f:(fun acc a -> weigh acc mult a)
                ()
            else
              Enumerate.fold_abstracts_sym ~nprocs ~msgs ~init:acc
                ~f:(fun acc a -> weigh acc mult a)
                ())
          (List.map (fun _ -> 0) plans, 0)
          (Enumerate.configs_sym ~nprocs ~nmsgs ())
      in
      let check_arm name (viols, causal) =
        let cviols, ccausal = concrete in
        check_int
          (Printf.sprintf "(%d,%d) %s causal count" nprocs nmsgs name)
          ccausal causal;
        List.iter2
          (fun (pname, _) (c, s) ->
            check_int
              (Printf.sprintf "(%d,%d) %s violations of %s" nprocs nmsgs name
                 pname)
              c s)
          plans
          (List.combine cviols viols)
      in
      check_arm "sym" (sym_arm ~prune:false ());
      check_arm "sym+prune" (sym_arm ~prune:true ()))
    Modelcheck.standard_sizes

(* ---- Modelcheck differentials ------------------------------------- *)

let str_verdict v = Format.asprintf "%a" Modelcheck.pp_verdict v

let str_placement p = Format.asprintf "%a" Modelcheck.pp_placement p

let test_modelcheck_equal () =
  let pool = Mo_par.Pool.create ~jobs:4 () in
  let v = Modelcheck.verify ~pool ~sizes:Modelcheck.standard_sizes () in
  let vs =
    Modelcheck.verify ~pool ~sym:true ~sizes:Modelcheck.standard_sizes ()
  in
  check_string "verify standard: byte-identical" (str_verdict v)
    (str_verdict vs);
  check_bool "verify standard: record-equal" true (v = vs);
  let c = Modelcheck.count ~pool ~sizes:Modelcheck.universe_sizes () in
  let cs =
    Modelcheck.count ~pool ~sym:true ~sizes:Modelcheck.universe_sizes ()
  in
  check_bool "count universe: equal" true (c = cs);
  check_int "count universe: runs pinned" 125_768 cs.Modelcheck.runs;
  check_int "count universe: causal pinned" 63_364 cs.Modelcheck.causal;
  check_int "count universe: sync pinned" 41_432 cs.Modelcheck.sync;
  List.iter
    (fun (e : Catalog.entry) ->
      let p =
        Modelcheck.placement ~pool ~sizes:Modelcheck.standard_sizes
          e.Catalog.pred
      in
      let ps =
        Modelcheck.placement ~pool ~sym:true ~sizes:Modelcheck.standard_sizes
          e.Catalog.pred
      in
      check_string
        ("placement standard " ^ e.Catalog.name ^ ": byte-identical")
        (str_placement p) (str_placement ps))
    [ Catalog.fifo; Catalog.causal_b2; Catalog.sync_crown 2 ];
  (* one universe-tier placement with a wider k-synchronous sweep *)
  let p =
    Modelcheck.placement ~pool ~kmax:5 ~sizes:Modelcheck.universe_sizes
      Catalog.fifo.Catalog.pred
  in
  let ps =
    Modelcheck.placement ~pool ~kmax:5 ~sym:true
      ~sizes:Modelcheck.universe_sizes Catalog.fifo.Catalog.pred
  in
  check_string "placement universe fifo kmax 5: byte-identical"
    (str_placement p) (str_placement ps)

let test_jobs_identity () =
  let at jobs =
    let pool = Mo_par.Pool.create ~jobs () in
    ( str_verdict
        (Modelcheck.verify ~pool ~sym:true ~sizes:Modelcheck.universe_sizes ()),
      str_placement
        (Modelcheck.placement ~pool ~sym:true
           ~sizes:Modelcheck.universe_sizes Catalog.causal_b2.Catalog.pred) )
  in
  let v1, p1 = at 1 in
  List.iter
    (fun jobs ->
      let v, p = at jobs in
      check_string
        (Printf.sprintf "verify sym: jobs %d byte-identical to jobs 1" jobs)
        v1 v;
      check_string
        (Printf.sprintf "placement sym: jobs %d byte-identical to jobs 1" jobs)
        p1 p)
    [ 2; 4; 7 ]

(* ---- the mopcd lattice op ----------------------------------------- *)

(* seeded random predicates of every generator shape: plain, guarded,
   and single-cycle *)
let random_pred seed =
  match seed mod 3 with
  | 0 -> Mo_workload.Random_pred.predicate ~seed ()
  | 1 -> Mo_workload.Random_pred.guarded_predicate ~seed ()
  | _ -> Mo_workload.Random_pred.cyclic_predicate ~nvars:(2 + (seed mod 4)) ~seed

(* the service's lattice payload answers from the leaf table; it must
   render byte for byte what the concrete walk renders. A concrete walk
   costs ~0.2-0.3 s, so tier-1 takes every catalog predicate at the
   service's default kmax 3 and 4 random predicates at kmax 1-4 and 6
   (above the largest message count, 4, so Ksync 4-6 hold every run);
   the nightly arm takes every catalog predicate and 200 random ones at
   the same kmaxes. The cases are spread over the pool. *)
let test_lattice_payload_equal () =
  let catalog =
    List.map (fun (e : Catalog.entry) -> (e.Catalog.name, e.Catalog.pred))
      Catalog.all
  and random n =
    List.init n (fun seed ->
        (Printf.sprintf "random seed %d" seed, random_pred seed))
  in
  let at kmaxes preds =
    List.concat_map (fun (name, p) -> List.map (fun k -> (name, p, k)) kmaxes)
      preds
  in
  let cases =
    Array.of_list
      (if deep then at [ 1; 2; 3; 4; 6 ] (catalog @ random 200)
       else at [ 3 ] catalog @ at [ 1; 2; 3; 4; 6 ] (random 4))
  in
  let payloads =
    Mo_par.Pool.map (Mo_par.Pool.create ()) ~chunk:1 (Array.length cases)
      ~f:(fun i ->
        let _, p, kmax = cases.(i) in
        let render sym =
          Mo_obs.Jsonb.to_string (Mo_service.Codec.lattice_payload ~kmax ~sym p)
        in
        (render true, render false))
  in
  Array.iteri
    (fun i (quotiented, concrete) ->
      let name, _, kmax = cases.(i) in
      check_string
        (Printf.sprintf "lattice payload %s kmax %d: byte-identical" name kmax)
        concrete quotiented)
    payloads

(* ---- the nightly deep arm ----------------------------------------- *)

let test_deep () =
  if not deep then ()
  else begin
    let pool = Mo_par.Pool.create () in
    let v = Modelcheck.verify ~pool ~sizes:Modelcheck.deep_sizes () in
    let vs =
      Modelcheck.verify ~pool ~sym:true ~sizes:Modelcheck.deep_sizes ()
    in
    check_string "verify deep: byte-identical" (str_verdict v)
      (str_verdict vs);
    check_int "deep runs pinned" 940_304 vs.Modelcheck.counts.Modelcheck.runs;
    (* the vast tier is only ever walked quotiented; its orbit-expanded
       cardinalities are pinned here and in bench B18 *)
    let c = Modelcheck.count ~pool ~sym:true ~sizes:Modelcheck.vast_sizes () in
    check_int "vast runs pinned" 77_830_564 c.Modelcheck.runs;
    check_int "vast causal pinned" 37_542_704 c.Modelcheck.causal;
    check_int "vast sync pinned" 23_179_456 c.Modelcheck.sync;
    let vv =
      Modelcheck.verify ~pool ~sym:true ~sizes:Modelcheck.vast_sizes ()
    in
    check_bool "vast verify: all lemma identities hold" true
      (Modelcheck.ok vv);
    check_bool "vast verify and count agree" true
      (vv.Modelcheck.counts = c)
  end

let () =
  Alcotest.run "sym"
    [
      ( "quotients",
        [
          Alcotest.test_case "configs_quotient / configs_sym" `Quick
            test_configs_quotient;
          Alcotest.test_case "configs_sym = oracle, order included" `Quick
            test_configs_sym_oracle;
          Alcotest.test_case "configs_sym edges and key-width guard" `Quick
            test_configs_sym_edges;
          Alcotest.test_case "count_runs_sym" `Quick test_count_runs_sym;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "orbit-expanded counts, every predicate" `Quick
            test_verdict_counts;
        ] );
      ( "modelcheck",
        [
          Alcotest.test_case "sym on/off byte-identity" `Quick
            test_modelcheck_equal;
          Alcotest.test_case "jobs 1/2/4/7 byte-identity" `Quick
            test_jobs_identity;
          Alcotest.test_case "lattice payload = concrete walk" `Slow
            test_lattice_payload_equal;
          Alcotest.test_case "deep + vast tiers (MO_SYM_DEEP)" `Slow test_deep;
        ] );
    ]
