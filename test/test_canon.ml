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

(* the payloads canonicalize once through [canonical]; it must be the
   pair the two separate calls give *)
let canonical_pair p =
  let c, d = Canon.canonical p in
  Forbidden.equal c (Canon.predicate p) && String.equal d (Canon.digest p)

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
    ]
