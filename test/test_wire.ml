(* The one-pass wire codecs against their references in Wire_oracle,
   over seeded inputs: request and reply frames shaped like mopcd's
   warm and cold traffic, the catalog, random JSON trees, predicate
   text with arbitrary variable names and spacing, and all of these
   mutated by byte flips, truncations, deletions and insertions drawn
   from each grammar's alphabet, JSON escapes, [\u] sequences and huge
   or signed numbers. Old and new must give equal [Ok] values, equal
   [Error] strings and identical printed bytes; the one intended
   difference is an out-of-range integer in a predicate, on which the
   reference raises and [Parse.predicate] returns an error. *)

open Mo_core
module J = Mo_obs.Jsonb
module Codec = Mo_service.Codec
module O = Wire_oracle

let catalog = Array.of_list (List.map (fun (e : Catalog.entry) -> e.pred) Catalog.all)

let pick rng a = a.(Random.State.int rng (Array.length a))

(* ---- predicates ---- *)

let gen_forbidden rng =
  let seed = Random.State.bits rng in
  match Prop.int_range 0 5 rng with
  | 0 -> pick rng catalog
  | 1 -> Mo_workload.Random_pred.predicate ~max_vars:6 ~max_conjuncts:7 ~seed ()
  | 2 ->
      Mo_workload.Random_pred.guarded_predicate ~max_vars:6 ~max_conjuncts:7
        ~seed ()
  | 3 ->
      (* svc-cold's shapes, and past the parser's linear variable scan *)
      Mo_workload.Random_pred.predicate ~max_vars:14 ~max_conjuncts:40 ~seed ()
  | 4 ->
      Mo_workload.Random_pred.guarded_predicate ~max_vars:12
        ~max_conjuncts:24 ~seed ()
  | _ ->
      (* colours the parser never produces: negative and huge *)
      Forbidden.make ~nvars:2
        ~guards:
          [
            Term.Color_is (0, pick rng [| -7; min_int; max_int; 0; 1234567 |]);
            Term.Same_dst (1, 0);
          ]
        [ Term.(s 0 @> r 1) ]

(* names sharing prefixes, and the grammar's own words as variables *)
let name_stems = [| "x"; "y"; "ab"; "a"; "A_"; "m_2_"; "v" |]

let special_names = [| "s"; "r"; "src"; "dst"; "color"; "colour"; "x0" |]

let spaces = [| ""; " "; " "; "  "; "\t"; "\n"; "\r\n " |]

(* a predicate as text a person might write: its own variable names and
   spacing; the variables keep their first-appearance order *)
let render rng p =
  let nv = Forbidden.nvars p in
  let names =
    if Random.State.int rng 5 = 0 then
      (* names of one length that share blocks and differ only inside *)
      Array.init nv (fun i ->
          String.concat ""
            (List.init 4 (fun b -> if (i lsr b) land 1 = 1 then "BC" else "Ab")))
    else
      Array.init nv (fun i ->
          if i < 2 && Random.State.int rng 4 = 0 then
            special_names.((i * 3) + Random.State.int rng 3)
          else pick rng name_stems ^ string_of_int i)
  in
  (* the special names may collide with a stem name; fall back then *)
  let names =
    if Array.length names = List.length (List.sort_uniq compare (Array.to_list names))
    then names
    else Array.init nv (fun i -> "x" ^ string_of_int i)
  in
  let sp () = pick rng spaces in
  let buf = Buffer.create 128 in
  let add = Buffer.add_string buf in
  let ep (e : Term.endpoint) =
    add names.(e.var);
    add (sp ());
    add ".";
    add (sp ());
    add (match e.point with Mo_order.Event.S -> "s" | R -> "r")
  in
  let first = ref true in
  let item () =
    if not !first then begin
      add (sp ());
      add "&";
      add (sp ())
    end;
    first := false
  in
  add (sp ());
  List.iter
    (fun (c : Term.conjunct) ->
      item ();
      ep c.before;
      add (sp ());
      add "<";
      add (sp ());
      ep c.after)
    (Forbidden.conjuncts p);
  List.iter
    (fun (g : Term.guard) ->
      item ();
      let same f x y =
        add f; add (sp ()); add "("; add names.(x); add ")"; add (sp ());
        add "="; add (sp ()); add f; add "("; add (sp ()); add names.(y);
        add (sp ()); add ")"
      in
      match g with
      | Term.Same_src (x, y) -> same "src" x y
      | Term.Same_dst (x, y) -> same "dst" x y
      | Term.Color_is (x, c) ->
          add "color("; add names.(x); add ")"; add (sp ()); add "=";
          add (sp ()); add (string_of_int (abs c)))
    (Forbidden.guards p);
  add (sp ());
  Buffer.contents buf

let pred_alphabet = "xyzabsrcdtolXR_019.<&=()  \t\n#|-+*/\"\\\000\255"

let pred_snippets =
  [|
    "src"; "dst"; "color"; "("; ")"; "="; " & "; "x.s"; "y.r"; ".s"; " < ";
    "99999999999999999999"; "4611686018427387903"; "4611686018427387904";
    "00000000000000000000000000007"; "-1"; "color(x) = 1"; "src(x) = src(y)";
    "é"; "\t"; "&&"; "";
  |]

(* ---- JSON ---- *)

let json_alphabet = "{}[]:,\"\\/ntrfalsebu0123456789-+.eE \t\n\rxz\000\031\127\200\255"

let json_snippets =
  [|
    "\\\""; "\\\\"; "\\/"; "\\n"; "\\b"; "\\f"; "\\u0041"; "\\u00e9"; "\\u20ac";
    "\\uffff"; "\\u12"; "\\uzzzz"; "\\u_123"; "\\u0x12"; "\\u1_2_";
    "\\u12_3"; "\\u+123"; "\\u-123"; "\\uABcd"; "\\x"; "\\";
    "99999999999999999999"; "-4611686018427387904"; "4611686018427387904";
    "-4611686018427387905"; "123456789012345678"; "1234567890123456789";
    "9999999999999999999"; "-9999999999999999999";
    "-0"; "+1"; "--1"; "1-2"; "0123"; "1e999"; "-1e-999"; "1.5e-3"; "1."; "-.5";
    "1e"; "e1"; "true"; "tru"; "nul"; "null"; "false"; "[]"; "{}"; "\"\"";
    "\"a\":"; ",\"x\":1"; "\226\130\172"; " ";
  |]

let ops = [| "classify"; "lattice"; "witness"; "stats"; "monitor"; "bogus" |]

let gen_string rng =
  String.init (Prop.int_range 0 12 rng) (fun _ ->
      if Random.State.bool rng then Char.chr (Random.State.int rng 256)
      else pick rng [| 'a'; 'z'; ' '; '"'; '\\'; '/'; '\n' |])

let gen_float rng =
  pick rng
    [|
      0.; -0.; 2.5; 0.125; -3.; 1e15; 1e20; 123456.; 1.5e-7; Float.infinity;
      float_of_int (Random.State.bits rng); Random.State.float rng 1000.;
    |]

let rec gen_tree rng depth =
  match Prop.int_range 0 (if depth = 0 then 4 else 6) rng with
  | 0 -> J.Null
  | 1 -> J.Bool (Random.State.bool rng)
  | 2 ->
      J.Int
        (pick rng
           [| 0; -1; 42; min_int; max_int; Random.State.bits rng; - Random.State.bits rng |])
  | 3 -> J.Float (gen_float rng)
  | 4 -> J.String (gen_string rng)
  | 5 -> J.List (List.init (Prop.int_range 0 4 rng) (fun _ -> gen_tree rng (depth - 1)))
  | _ ->
      J.Obj
        (List.init (Prop.int_range 0 4 rng) (fun _ ->
             (gen_string rng, gen_tree rng (depth - 1))))

(* a request frame's payload, shaped like svc-warm's and svc-cold's *)
let gen_request rng =
  let id = pick rng [| 0; 7; 999; Random.State.bits rng; -3 |] in
  let text () =
    let p = gen_forbidden rng in
    if Random.State.int rng 3 = 0 then render rng p else Forbidden.to_string p
  in
  let fields =
    [ ("id", J.Int id); ("op", J.String (pick rng ops)); ("pred", J.String (text ())) ]
    @ (if Random.State.int rng 4 = 0 then [ ("kmax", J.Int (Prop.int_range 0 70 rng)) ] else [])
    @ if Random.State.int rng 4 = 0 then [ ("deadline_ms", J.Int 250) ] else []
  in
  J.Obj fields

(* reply payloads, computed once: classify results of the catalog and
   of warm-set shapes, and error replies *)
let replies =
  lazy
    (let rng = Random.State.make [| 17 |] in
     Array.init 60 (fun i ->
         let p = gen_forbidden rng in
         if i mod 10 = 9 then
           Codec.error_response ~id:i
             (Printf.sprintf "cannot parse %S: expected a clause"
                (Forbidden.to_string p))
         else Codec.ok_response ~id:i (Codec.classify_payload p)))

let gen_json rng =
  match Prop.int_range 0 3 rng with
  | 0 | 1 -> gen_request rng
  | 2 -> pick rng (Lazy.force replies)
  | _ -> gen_tree rng 4

(* ---- mutation ---- *)

let mutate rng ~alphabet ~snippets s =
  let n = String.length s in
  let at () = Random.State.int rng (n + 1) in
  match Prop.int_range 0 3 rng with
  | 0 when n > 0 ->
      let i = Random.State.int rng n in
      let c =
        if Random.State.int rng 4 = 0 then Char.chr (Random.State.int rng 256)
        else alphabet.[Random.State.int rng (String.length alphabet)]
      in
      String.mapi (fun j x -> if j = i then c else x) s
  | 1 -> String.sub s 0 (at ())
  | 2 ->
      let i = at () in
      let j = min n (i + Prop.int_range 1 6 rng) in
      String.sub s 0 i ^ String.sub s j (n - j)
  | _ ->
      let i = at () in
      String.sub s 0 i ^ pick rng snippets ^ String.sub s i (n - i)

let mutations rng ~alphabet ~snippets s =
  let rec go k s = if k = 0 then s else go (k - 1) (mutate rng ~alphabet ~snippets s) in
  match Prop.int_range 0 3 rng with 0 -> s | k -> go k s

(* ---- the differentials ---- *)

let json_same text =
  let fresh = J.of_string text in
  let padded =
    let b = Bytes.of_string ("{x" ^ text ^ "\"]") in
    J.of_bytes b ~pos:2 ~len:(String.length text)
  in
  fresh = O.json_of_string text
  && padded = fresh
  &&
  match fresh with
  | Error _ -> true
  | Ok v ->
      J.to_string v = O.json_to_string v
      && J.to_string_pretty v = O.json_to_string_pretty v
      &&
      let p = O.json_to_string v in
      Codec.encode_frame v
      = string_of_int (String.length p) ^ "\n" ^ p ^ "\n"

let fields p = (Forbidden.nvars p, Forbidden.conjuncts p, Forbidden.guards p)

let pred_same text =
  let oracle =
    match O.predicate text with r -> Some r | exception Failure _ -> None
  in
  match (Parse.predicate text, oracle) with
  | Ok p, Some (Ok q) ->
      fields p = fields q
      && Forbidden.to_string p = Canon_oracle.forbidden_to_string p
  | Error a, Some (Error b) -> a = b
  | Error a, None ->
      String.starts_with ~prefix:"integer literal out of range at offset " a
  | _ -> false

let test_json_differential =
  Prop.test ~count:30_000 ~seed:2201 ~name:"json differential"
    (fun rng ->
      let v = gen_json rng in
      let text = if Random.State.int rng 4 = 0 then J.to_string_pretty v else J.to_string v in
      mutations rng ~alphabet:json_alphabet ~snippets:json_snippets text)
    ~pp:(Printf.sprintf "%S")
    json_same

let test_pred_differential =
  Prop.test ~count:30_000 ~seed:2202 ~name:"predicate differential"
    (fun rng ->
      let p = gen_forbidden rng in
      let text = if Random.State.bool rng then render rng p else Forbidden.to_string p in
      mutations rng ~alphabet:pred_alphabet ~snippets:pred_snippets text)
    ~pp:(Printf.sprintf "%S")
    pred_same

(* the printer is byte-identical on every generated predicate, negative
   colours included, and a predicate numbered by first appearance comes
   back from its text, whatever the names and spacing *)
let test_printer_roundtrip =
  Prop.test ~count:5_000 ~seed:2203 ~name:"printer round trip"
    (fun rng -> (gen_forbidden rng, Random.State.bits rng))
    ~pp:(fun (p, _) -> Forbidden.to_string p)
    (fun (p, seed) ->
      Forbidden.to_string p = Canon_oracle.forbidden_to_string p
      &&
      match Parse.predicate (Forbidden.to_string p) with
      | Error _ ->
          List.exists
            (function Term.Color_is (_, c) -> c < 0 | _ -> false)
            (Forbidden.guards p)
      | Ok wire -> (
          match Parse.predicate (render (Random.State.make [| seed |]) wire) with
          | Ok q -> Forbidden.equal wire q
          | Error _ -> false))

(* ---- Forbidden.make's duplicate filter ---- *)

let test_dedup =
  Prop.test ~count:3_000 ~seed:2204 ~name:"linear dedup = quadratic dedup"
    (fun rng ->
      let nvars = Prop.int_range 1 6 rng in
      let v () = Random.State.int rng nvars in
      let pt () = if Random.State.bool rng then Term.s (v ()) else Term.r (v ()) in
      let conjuncts = List.init (Prop.int_range 0 60 rng) (fun _ -> Term.(pt () @> pt ())) in
      let guards =
        List.init (Prop.int_range 0 30 rng) (fun _ ->
            let x = v () and y = v () in
            match Prop.int_range 0 2 rng with
            | 0 -> Term.Same_src (x, y)
            | 1 -> Term.Same_dst (x, y)
            | _ -> Term.Color_is (x, Prop.int_range 0 3 rng))
      in
      (* mirror some guards, so symmetric duplicates occur *)
      let guards =
        guards
        @ List.filter_map
            (function
              | Term.Same_src (x, y) when Random.State.bool rng -> Some (Term.Same_src (y, x))
              | Term.Same_dst (x, y) when Random.State.bool rng -> Some (Term.Same_dst (y, x))
              | _ -> None)
            guards
      in
      (nvars, conjuncts, guards))
    (fun (nvars, conjuncts, guards) ->
      let p = Forbidden.make ~nvars ~guards conjuncts in
      Forbidden.conjuncts p = O.dedup Term.conjunct_equal conjuncts
      && Forbidden.guards p = O.dedup Term.guard_equal guards)

(* a \u escape is exactly four hex digits: '_' separators, a sign or a
   0x prefix, which int_of_string would take, are errors, and the error
   text is the one every other bad escape gets *)
let test_unicode_escape () =
  let parse text =
    match J.of_string text with
    | Ok (J.String s) -> Ok s
    | Ok _ -> Error "not a string"
    | Error e -> Error e
  in
  List.iter
    (fun (text, want) ->
      Alcotest.(check (result string string)) text want (parse text);
      Alcotest.(check (result string string))
        (text ^ " (oracle)") want
        (match O.json_of_string text with
        | Ok (J.String s) -> Ok s
        | Ok _ -> Error "not a string"
        | Error e -> Error e))
    [
      ({|"\u0041"|}, Ok "A");
      ({|"\u00e9"|}, Ok "\xc3\xa9");
      ({|"\uABcd"|}, Ok "\xea\xaf\x8d");
      ({|"\u1_2_"|}, Error {|at 3: bad \u escape "1_2_"|});
      ({|"\u12_3"|}, Error {|at 3: bad \u escape "12_3"|});
      ({|"\u_123"|}, Error {|at 3: bad \u escape "_123"|});
      ({|"\u+123"|}, Error {|at 3: bad \u escape "+123"|});
      ({|"\u-123"|}, Error {|at 3: bad \u escape "-123"|});
      ({|"\u0x12"|}, Error {|at 3: bad \u escape "0x12"|});
    ]

let () =
  Alcotest.run "wire"
    [
      ( "oracle",
        [
          Alcotest.test_case "json differential" `Quick test_json_differential;
          Alcotest.test_case "predicate differential" `Quick
            test_pred_differential;
          Alcotest.test_case "printer round trip" `Quick test_printer_roundtrip;
          Alcotest.test_case "linear dedup" `Quick test_dedup;
          Alcotest.test_case "\\u takes four hex digits" `Quick
            test_unicode_escape;
        ] );
    ]
