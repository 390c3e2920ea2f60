open Mo_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse_ok s =
  match Parse.predicate s with
  | Ok p -> p
  | Error e -> Alcotest.fail (s ^ ": " ^ e)

let test_causal () =
  let p = parse_ok "x.s < y.s & y.r < x.r" in
  check_int "arity" 2 (Forbidden.nvars p);
  check_bool "equals catalog causal" true
    (Forbidden.equal p Catalog.causal_b2.Catalog.pred)

let test_variable_numbering () =
  (* variables numbered by first appearance *)
  let p = parse_ok "b.r < a.s" in
  check_int "arity" 2 (Forbidden.nvars p);
  match Forbidden.conjuncts p with
  | [ c ] ->
      check_int "b is 0" 0 c.Term.before.Term.var;
      check_int "a is 1" 1 c.Term.after.Term.var
  | _ -> Alcotest.fail "expected one conjunct"

let test_guards () =
  let p =
    parse_ok "x.s < y.s & y.r < x.r & src(x) = src(y) & dst(x) = dst(y)"
  in
  check_bool "is fifo" true (Forbidden.equal p Catalog.fifo.Catalog.pred);
  let q = parse_ok "x.s < y.s & y.r < x.r & color(y) = 1" in
  check_bool "is global forward flush" true
    (Forbidden.equal q Catalog.global_forward_flush.Catalog.pred)

let test_whitespace () =
  let p = parse_ok "  x.s<y.s&y.r<x.r  " in
  check_bool "dense syntax" true
    (Forbidden.equal p Catalog.causal_b2.Catalog.pred)

let test_empty () =
  let p = parse_ok "" in
  check_int "empty predicate" 0 (Forbidden.nvars p)

let test_errors () =
  List.iter
    (fun s ->
      match Parse.predicate s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted: " ^ s))
    [
      "x.s <";
      "x.s < y.q";
      "x < y.s";
      "x.s y.s";
      "src(x) = dst(y)";
      "color(x) = red";
      "x.s < y.s &";
      "x.s < y.s | y.r < x.r";
    ]

(* the lexical level is checked first: a bad byte or an out-of-range
   integer anywhere in the text is the error, even behind a syntax error
   that comes earlier *)
let test_error_precedence () =
  let error s =
    match Parse.predicate s with
    | Error e -> e
    | Ok _ -> Alcotest.fail ("accepted: " ^ s)
  in
  let check = Alcotest.(check string) in
  check "out-of-range colour"
    "integer literal out of range at offset 23"
    (error "x.s < y.r & color(x) = 99999999999999999999");
  check "out-of-range behind a syntax error"
    "integer literal out of range at offset 10"
    (error "x.s < & y 4611686018427387904");
  check "bad byte behind a syntax error" "unexpected character '#' at offset 8"
    (error "x.s < & #");
  check "first lexical error wins" "unexpected character '#' at offset 2"
    (error "x #.s 99999999999999999999");
  check "syntax error alone" "expected an endpoint after '<'" (error "x.s < & y");
  match Parse.predicate "x.s < y.r & color(x) = 4611686018427387903" with
  | Ok p ->
      check_bool "max_int colour" true
        (List.mem (Term.Color_is (0, max_int)) (Forbidden.guards p))
  | Error e -> Alcotest.fail e

let test_roundtrip_catalog () =
  (* printing then reparsing every catalog entry preserves the predicate *)
  List.iter
    (fun (e : Catalog.entry) ->
      let printed = Forbidden.to_string e.pred in
      let reparsed = parse_ok printed in
      check_bool (e.name ^ " roundtrip") true (Forbidden.equal e.pred reparsed))
    Catalog.all

let test_exn () =
  Alcotest.check_raises "predicate_exn"
    (Invalid_argument "Parse.predicate: expected 's' or 'r' after '.'")
    (fun () -> ignore (Parse.predicate_exn "x.q < y.s"))

let () =
  Alcotest.run "parse"
    [
      ( "unit",
        [
          Alcotest.test_case "causal" `Quick test_causal;
          Alcotest.test_case "variable numbering" `Quick
            test_variable_numbering;
          Alcotest.test_case "guards" `Quick test_guards;
          Alcotest.test_case "whitespace" `Quick test_whitespace;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "error precedence" `Quick test_error_precedence;
          Alcotest.test_case "catalog roundtrip" `Quick test_roundtrip_catalog;
          Alcotest.test_case "exn" `Quick test_exn;
        ] );
    ]
