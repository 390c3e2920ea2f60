(* The canonicalization proof obligation, as executable properties:

   1. invariance — any bijective renaming of a predicate's message
      variables (plus any shuffle of its conjuncts and guards) produces
      the same canonical form, the same digest, and — since renaming is
      a graph isomorphism — the identical classification;
   2. soundness — canonicalization never changes what Classify says:
      verdict, cycle orders, necessity_exact and the simplification
      outcome all survive;
   3. idempotence — the canonical form is a fixpoint.

   The renaming-pair property runs ≥ 1000 random pairs (the acceptance
   bar for the decision cache: a digest collision between inequivalent
   predicates would poison it silently, a digest split between
   equivalent ones would only cost hit rate). *)

open Mo_core

let gen_pred rng =
  match Prop.int_range 0 3 rng with
  | 0 ->
      Mo_workload.Random_pred.predicate
        ~seed:(Prop.int_range 0 1_000_000 rng)
        ()
  | 1 ->
      Mo_workload.Random_pred.predicate ~max_vars:7 ~max_conjuncts:12
        ~seed:(Prop.int_range 0 1_000_000 rng)
        ()
  | 2 ->
      Mo_workload.Random_pred.guarded_predicate
        ~seed:(Prop.int_range 0 1_000_000 rng)
        ()
  | _ ->
      Mo_workload.Random_pred.cyclic_predicate
        ~nvars:(Prop.int_range 2 6 rng)
        ~seed:(Prop.int_range 0 1_000_000 rng)

(* a uniformly random permutation of 0..n-1 (Fisher–Yates) *)
let random_perm n rng =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Prop.int_range 0 i rng in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

let shuffle l rng =
  let a = Array.of_list l in
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = Prop.int_range 0 i rng in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

(* alpha-rename through a permutation, shuffling clause order too *)
let rename_pred p perm rng =
  let ep (e : Term.endpoint) =
    { Term.var = perm.(e.Term.var); point = e.Term.point }
  in
  let conjuncts =
    List.map
      (fun (c : Term.conjunct) ->
        Term.(ep c.Term.before @> ep c.Term.after))
      (Forbidden.conjuncts p)
  in
  let guards =
    List.map
      (fun (g : Term.guard) ->
        match g with
        | Term.Same_src (x, y) -> Term.Same_src (perm.(x), perm.(y))
        | Term.Same_dst (x, y) -> Term.Same_dst (perm.(x), perm.(y))
        | Term.Color_is (x, c) -> Term.Color_is (perm.(x), c))
      (Forbidden.guards p)
  in
  Forbidden.make ~nvars:(Forbidden.nvars p)
    ~guards:(shuffle guards rng)
    (shuffle conjuncts rng)

let gen_renaming_pair rng =
  let p = gen_pred rng in
  let perm = random_perm (Forbidden.nvars p) rng in
  (p, rename_pred p perm rng)

let classification_fingerprint p =
  let r = Classify.classify p in
  ( r.Classify.verdict,
    r.Classify.orders,
    r.Classify.necessity_exact,
    r.Classify.simplification )

let pp_pair (p, q) =
  Printf.sprintf "%s  ~  %s" (Forbidden.to_string p)
    (Forbidden.to_string q)

let renaming_invariance (p, q) =
  String.equal (Canon.digest p) (Canon.digest q)
  && Canon.equal p q
  && Forbidden.equal (Canon.predicate p) (Canon.predicate q)
  && classification_fingerprint p = classification_fingerprint q

let classify_preserved p =
  classification_fingerprint p = classification_fingerprint (Canon.predicate p)

let idempotent p =
  let c = Canon.predicate p in
  Forbidden.equal c (Canon.predicate c)
  && String.equal (Canon.digest p) (Canon.digest c)

(* the service canonicalizes once, to a key, and reads both the
   predicate and the digest off it; they must be what the two separate
   calls give *)
let canonical_pair p =
  let k = Canon.key p in
  Forbidden.equal (Canon.of_key k) (Canon.predicate p)
  && String.equal (Canon.key_digest k) (Canon.digest p)

(* hand-written sanity anchors *)

let pred = Parse.predicate_exn

let test_known_pairs () =
  let equal_digests a b =
    Alcotest.(check bool)
      (a ^ " ~ " ^ b) true
      (String.equal (Canon.digest (pred a)) (Canon.digest (pred b)))
  in
  (* variable renaming *)
  equal_digests "x.s < y.s & y.r < x.r" "b.s < a.s & a.r < b.r";
  (* conjunct reordering *)
  equal_digests "x.s < y.s & y.r < x.r" "y.r < x.r & x.s < y.s";
  (* symmetric guard written both ways *)
  equal_digests "x.s < y.r & src(x) = src(y)" "x.s < y.r & src(y) = src(x)";
  (* different specifications stay apart *)
  Alcotest.(check bool)
    "fifo is not causal" false
    (String.equal
       (Canon.digest (pred "x.s < y.s & y.r < x.r & src(x) = src(y)"))
       (Canon.digest (pred "x.s < y.s & y.r < x.r")))

(* regression: the permutation-search budget is a product of class
   factorials, which overflowed the native int once a symmetric class
   passed 20 variables — the negative budget slipped under [max_search]
   and the search tried to enumerate 21! orders. A fully symmetric
   22-variable predicate (one signature class: a conjunct cycle plus
   identical color guards) must take the refinement-order fallback and
   return immediately. *)
let test_symmetric_budget_overflow () =
  let nvars = 22 in
  let p =
    Forbidden.make ~nvars
      ~guards:(List.init nvars (fun v -> Term.Color_is (v, 1)))
      (List.init nvars (fun v ->
           Term.(
             { var = v; point = S }
             @> { var = (v + 1) mod nvars; point = R })))
  in
  Alcotest.(check string)
    "digest is deterministic" (Canon.digest p) (Canon.digest p);
  Alcotest.(check bool)
    "truncated canonicalization is a fixpoint" true
    (Canon.equal p (Canon.predicate p))

let test_spec_canon () =
  let a = pred "x.s < y.s & y.r < x.r" in
  let a' = pred "p.s < q.s & q.r < p.r" in
  let b = pred "x.s < y.r & y.s < x.r" in
  let s = Spec.make ~name:"s" [ a; b; a' ] in
  let canonical = Canon.spec s in
  Alcotest.(check int)
    "alpha-duplicates collapse" 2
    (List.length canonical.Spec.predicates);
  let reordered = Spec.make ~name:"s" [ b; a'; a ] in
  Alcotest.(check string)
    "member order is irrelevant" (Canon.spec_digest s)
    (Canon.spec_digest reordered)

(* ---- the reference canonicalizer as oracle ----------------------- *)

(* Canon must agree byte for byte with Canon_oracle (the list-based
   canonicalizer it replaced): digests are cache keys and persisted
   snapshot keys, so any drift would orphan them. [matches_oracle]
   compares the digest, the key's digest, the canonical predicate as
   printed and the printed input; [spec_matches_oracle] the spec digest
   and the canonical spec. *)

(* x0.s < x1.r, ..., x(n-1).s < x0.r *)
let ring ~nvars =
  Forbidden.make ~nvars
    (List.init nvars (fun v -> Term.(s v @> r ((v + 1) mod nvars))))

(* every xi.s < xj.r, i <> j *)
let complete ~nvars =
  let vars = List.init nvars Fun.id in
  Forbidden.make ~nvars
    (List.concat_map
       (fun i ->
         List.filter_map
           (fun j -> if i = j then None else Some Term.(s i @> r j))
           vars)
       vars)

(* svc-cold's hard shape: the union of [ncycles] random Hamiltonian
   cycles over [nvars] variables, endpoints drawn at random *)
let multi_cycle rng ~nvars ~ncycles =
  let one_cycle () =
    let perm = random_perm nvars rng in
    List.init nvars (fun i ->
        let pt v = if Random.State.bool rng then Term.s v else Term.r v in
        Term.(pt perm.(i) @> pt perm.((i + 1) mod nvars)))
  in
  Forbidden.make ~nvars
    (List.concat (List.init ncycles (fun _ -> one_cycle ())))

(* colours anywhere in the int range, duplicated across variables *)
let wide_colors = [| min_int; -1_000_003; -7; -1; 0; 3; 12; 4_096; max_int |]

let wide_colored rng =
  let base =
    Mo_workload.Random_pred.predicate ~max_vars:9 ~max_conjuncts:12
      ~seed:(Prop.int_range 0 1_000_000 rng)
      ()
  in
  let nvars = Forbidden.nvars base in
  let guards =
    List.init (Prop.int_range 1 6 rng) (fun _ ->
        let x = Prop.int_range 0 (nvars - 1) rng in
        match Prop.int_range 0 4 rng with
        | 0 -> Term.Same_src (x, Prop.int_range 0 (nvars - 1) rng)
        | 1 -> Term.Same_dst (x, Prop.int_range 0 (nvars - 1) rng)
        | _ ->
            let c = Prop.int_range 0 (Array.length wide_colors - 1) rng in
            Term.Color_is (x, wide_colors.(c)))
  in
  Forbidden.make ~nvars ~guards (Forbidden.conjuncts base)

let gen_small rng =
  let seed = Prop.int_range 0 1_000_000_000 rng in
  match Prop.int_range 0 3 rng with
  | 0 ->
      Mo_workload.Random_pred.predicate ~max_vars:9 ~max_conjuncts:16 ~seed
        ()
  | 1 ->
      Mo_workload.Random_pred.guarded_predicate ~max_vars:9 ~max_conjuncts:12
        ~seed ()
  | 2 ->
      Mo_workload.Random_pred.cyclic_predicate
        ~nvars:(Prop.int_range 2 9 rng) ~seed
  | _ -> wide_colored rng

let matches_oracle p =
  let same what got want =
    if not (String.equal got want) then
      Alcotest.failf "%s of %s: %S, oracle %S" what
        (Canon_oracle.forbidden_to_string p)
        got want
  in
  let oc, od = Canon_oracle.canonical p in
  same "digest" (Canon.digest p) od;
  let k = Canon.key p in
  let c = Canon.of_key k in
  same "key digest" (Canon.key_digest k) od;
  same "predicate" (Forbidden.to_string c)
    (Canon_oracle.forbidden_to_string oc);
  same "printer" (Forbidden.to_string p) (Canon_oracle.forbidden_to_string p)

let spec_matches_oracle s =
  let same what got want =
    if not (String.equal got want) then
      Alcotest.failf "%s of spec %s: %S, oracle %S" what
        (String.concat " ; "
           (List.map Canon_oracle.forbidden_to_string s.Spec.predicates))
        got want
  in
  same "spec_digest" (Canon.spec_digest s) (Canon_oracle.spec_digest s);
  (* what minimize's payload reported: the digest of the canonical spec *)
  same "spec_digest of spec" (Canon.spec_digest s)
    (Canon_oracle.spec_digest (Canon_oracle.spec s));
  let printed (s : Spec.t) =
    String.concat " ; " (List.map Forbidden.to_string s.Spec.predicates)
  in
  same "spec" (printed (Canon.spec s)) (printed (Canon_oracle.spec s))

let test_oracle_catalog () =
  List.iter
    (fun (e : Catalog.entry) -> matches_oracle e.Catalog.pred)
    Catalog.all;
  spec_matches_oracle
    (Spec.make ~name:"catalog"
       (List.map (fun (e : Catalog.entry) -> e.Catalog.pred) Catalog.all))

let test_oracle_draws () =
  let rng = Random.State.make [| 2026; 20 |] in
  let draws = 20_400 in
  let window = ref [] in
  for i = 1 to draws do
    let p = gen_small rng in
    matches_oracle p;
    (* every twelfth draw, a spec of the last four plus an alpha-renamed
       duplicate *)
    if i mod 12 >= 8 then window := p :: !window;
    if i mod 12 = 0 then begin
      let dup = rename_pred p (random_perm (Forbidden.nvars p) rng) rng in
      spec_matches_oracle (Spec.make ~name:"s" (dup :: !window));
      window := []
    end
  done

let test_oracle_multi_cycle () =
  let rng = Random.State.make [| 2026; 21 |] in
  for _ = 1 to 400 do
    let p =
      multi_cycle rng ~nvars:(8 + Prop.int_range 0 1 rng)
        ~ncycles:(Prop.int_range 1 5 rng)
    in
    matches_oracle p;
    matches_oracle (rename_pred p (random_perm (Forbidden.nvars p) rng) rng)
  done

(* shapes whose one signature class reaches the exact search (8 ring
   members, 7 complete ones) or the fallback (the 9-ring, and the
   22-variable regression below); every renaming must agree too *)
let test_oracle_symmetric () =
  let rng = Random.State.make [| 2026; 22 |] in
  let shapes =
    [
      ring ~nvars:8;
      complete ~nvars:7;
      ring ~nvars:9;
      Forbidden.make ~nvars:22
        ~guards:(List.init 22 (fun v -> Term.Color_is (v, 1)))
        (Forbidden.conjuncts (ring ~nvars:22));
      Forbidden.make ~nvars:8
        ~guards:(List.init 4 (fun v -> Term.Same_src (2 * v, (2 * v) + 1)))
        (Forbidden.conjuncts (ring ~nvars:8));
    ]
  in
  List.iter
    (fun p ->
      matches_oracle p;
      for _ = 1 to 2 do
        matches_oracle
          (rename_pred p (random_perm (Forbidden.nvars p) rng) rng)
      done)
    shapes;
  (* ~0.4 s in the oracle: once *)
  matches_oracle (complete ~nvars:8)

let test_printer () =
  let t = Forbidden.make in
  let check p =
    Alcotest.(check string)
      (Canon_oracle.forbidden_to_string p)
      (Canon_oracle.forbidden_to_string p)
      (Forbidden.to_string p)
  in
  check (t ~nvars:0 []);
  check (t ~nvars:3 []);
  check
    (t ~nvars:12
       ~guards:
         Term.
           [
             Same_src (11, 3);
             Same_dst (10, 10);
             Color_is (0, -5);
             Color_is (10, 123_456);
             Color_is (11, min_int);
             Color_is (1, max_int);
           ]
       Term.[ s 10 @> r 11; r 0 @> s 9; s 11 @> s 11 ]);
  check (t ~nvars:2 ~guards:[ Term.Color_is (1, -40) ] []);
  check (complete ~nvars:9)

let () =
  Alcotest.run "canon"
    [
      ( "properties",
        [
          Alcotest.test_case "renaming pairs: digest + classify" `Quick
            (Prop.test ~count:1200 ~seed:42
               ~name:"alpha-renaming invariance" gen_renaming_pair
               ~pp:pp_pair renaming_invariance);
          Alcotest.test_case "classification preserved" `Quick
            (Prop.test ~count:400 ~seed:7 ~name:"classify(canon) = classify"
               gen_pred
               ~pp:Forbidden.to_string classify_preserved);
          Alcotest.test_case "idempotent" `Quick
            (Prop.test ~count:400 ~seed:11 ~name:"canon is a fixpoint"
               gen_pred
               ~pp:Forbidden.to_string idempotent);
          Alcotest.test_case "canonical = (predicate, digest)" `Quick
            (Prop.test ~count:400 ~seed:13 ~name:"canonical pair" gen_pred
               ~pp:Forbidden.to_string canonical_pair);
        ] );
      ( "unit",
        [
          Alcotest.test_case "known pairs" `Quick test_known_pairs;
          Alcotest.test_case "symmetric budget overflow" `Quick
            test_symmetric_budget_overflow;
          Alcotest.test_case "spec canonicalization" `Quick test_spec_canon;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "catalog" `Quick test_oracle_catalog;
          Alcotest.test_case "20,400 random draws" `Quick test_oracle_draws;
          Alcotest.test_case "multi-cycle 8-9 variables" `Quick
            test_oracle_multi_cycle;
          Alcotest.test_case "symmetric and fallback shapes" `Quick
            test_oracle_symmetric;
          Alcotest.test_case "printer" `Quick test_printer;
        ] );
    ]
