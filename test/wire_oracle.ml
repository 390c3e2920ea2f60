(* The reference wire codecs, kept as the oracles for the one-pass ones
   in lib/: a byte-at-a-time JSON reader and a closure-per-byte printer
   ([Mo_obs.Jsonb]), the token-list predicate parser ([Mo_core.Parse]),
   and the quadratic duplicate filter of [Forbidden.make]. The
   lib/ versions must give equal [Ok] values, equal [Error] strings and
   identical printed bytes (test_wire pins this); the one intended
   difference is an out-of-range integer in a predicate, on which
   [predicate] here raises [Failure "int_of_string"]. The printer of
   [Forbidden.to_string] is {!Canon_oracle.forbidden_to_string}. *)

open Mo_core
module J = Mo_obs.Jsonb

(* ---- JSON printing ----------------------------------------------- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let rec emit buf ~indent ~level (v : J.t) =
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let sep () = if indent then Buffer.add_string buf "\n" else () in
  match v with
  | J.Null -> Buffer.add_string buf "null"
  | J.Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | J.Int i -> Buffer.add_string buf (string_of_int i)
  | J.Float f -> Buffer.add_string buf (float_repr f)
  | J.String s -> escape buf s
  | J.List [] -> Buffer.add_string buf "[]"
  | J.List items ->
      Buffer.add_char buf '[';
      sep ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            sep ()
          end;
          pad (level + 1);
          emit buf ~indent ~level:(level + 1) item)
        items;
      sep ();
      pad level;
      Buffer.add_char buf ']'
  | J.Obj [] -> Buffer.add_string buf "{}"
  | J.Obj fields ->
      Buffer.add_char buf '{';
      sep ();
      List.iteri
        (fun i (k, item) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            sep ()
          end;
          pad (level + 1);
          escape buf k;
          Buffer.add_string buf (if indent then ": " else ":");
          emit buf ~indent ~level:(level + 1) item)
        fields;
      sep ();
      pad level;
      Buffer.add_char buf '}'

let json_to_buffer buf v = emit buf ~indent:false ~level:0 v

let json_to_string v =
  let buf = Buffer.create 256 in
  json_to_buffer buf v;
  Buffer.contents buf

let json_to_string_pretty v =
  let buf = Buffer.create 1024 in
  emit buf ~indent:true ~level:0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ---- JSON parsing ------------------------------------------------ *)

exception Parse_error of string

let json_of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let error fmt =
    Printf.ksprintf
      (fun m -> raise (Parse_error (Printf.sprintf "at %d: %s" !pos m)))
      fmt
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> error "expected %C, found %C" c c'
    | None -> error "expected %C, found end of input" c
  in
  let literal word v =
    if
      !pos + String.length word <= n
      && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else error "bad literal"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance (); go ()
          | Some '/' -> Buffer.add_char buf '/'; advance (); go ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
          | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then error "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              let is_hex = function
                | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                | _ -> false
              in
              (* exactly four hex digits: no sign, no '_' separators *)
              (match
                 if String.for_all is_hex hex then
                   int_of_string_opt ("0x" ^ hex)
                 else None
               with
              | Some code when code < 0x80 ->
                  Buffer.add_char buf (Char.chr code)
              | Some code ->
                  if code < 0x800 then begin
                    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                  end
                  else begin
                    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                    Buffer.add_char buf
                      (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                  end
              | None -> error "bad \\u escape %S" hex);
              pos := !pos + 4;
              go ()
          | _ -> error "bad escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') ->
          advance ();
          go ()
      | Some ('.' | 'e' | 'E') ->
          is_float := true;
          advance ();
          go ()
      | _ -> ()
    in
    go ();
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> J.Float f
      | None -> error "bad number %S" text
    else
      match int_of_string_opt text with
      | Some i -> J.Int i
      | None -> error "bad number %S" text
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '"' -> J.String (parse_string ())
    | Some 't' -> literal "true" (J.Bool true)
    | Some 'f' -> literal "false" (J.Bool false)
    | Some 'n' -> literal "null" J.Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          J.List []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                J.List (List.rev (v :: acc))
            | _ -> error "expected ',' or ']'"
          in
          items []
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          J.Obj []
        end
        else
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields (kv :: acc)
            | Some '}' ->
                advance ();
                J.Obj (List.rev (kv :: acc))
            | _ -> error "expected ',' or '}'"
          in
          fields []
    | Some c -> error "unexpected %C" c
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then error "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error m -> Error m

(* ---- Forbidden.make's duplicate filter --------------------------- *)

let dedup equal l =
  List.fold_left
    (fun acc x -> if List.exists (equal x) acc then acc else x :: acc)
    [] l
  |> List.rev

(* ---- predicate parsing ------------------------------------------- *)

type token =
  | Tident of string
  | Tint of int
  | Tdot
  | Tless
  | Tamp
  | Teq
  | Tlparen
  | Trparen

let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

let is_digit c = c >= '0' && c <= '9'

let tokenize s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then Ok (List.rev acc)
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | '.' -> go (i + 1) (Tdot :: acc)
      | '<' -> go (i + 1) (Tless :: acc)
      | '&' -> go (i + 1) (Tamp :: acc)
      | '=' -> go (i + 1) (Teq :: acc)
      | '(' -> go (i + 1) (Tlparen :: acc)
      | ')' -> go (i + 1) (Trparen :: acc)
      | c when is_digit c ->
          let j = ref i in
          while !j < n && is_digit s.[!j] do
            incr j
          done;
          go !j (Tint (int_of_string (String.sub s i (!j - i))) :: acc)
      | c when is_letter c ->
          let j = ref i in
          while !j < n && (is_letter s.[!j] || is_digit s.[!j] || s.[!j] = '_')
          do
            incr j
          done;
          go !j (Tident (String.sub s i (!j - i)) :: acc)
      | c -> Error (Printf.sprintf "unexpected character %C at offset %d" c i)
  in
  go 0 []

type state = {
  mutable tokens : token list;
  vars : (string, int) Hashtbl.t;
  mutable nvars : int;
}

let var_index st name =
  match Hashtbl.find_opt st.vars name with
  | Some i -> i
  | None ->
      let i = st.nvars in
      st.nvars <- i + 1;
      Hashtbl.replace st.vars name i;
      i

let expect st tok what =
  match st.tokens with
  | t :: rest when t = tok ->
      st.tokens <- rest;
      Ok ()
  | _ -> Error (Printf.sprintf "expected %s" what)

let ( let* ) = Result.bind

let parse_point st =
  match st.tokens with
  | Tident "s" :: rest ->
      st.tokens <- rest;
      Ok Mo_order.Event.S
  | Tident "r" :: rest ->
      st.tokens <- rest;
      Ok Mo_order.Event.R
  | _ -> Error "expected 's' or 'r' after '.'"

let parse_endpoint st name =
  let v = var_index st name in
  let* () = expect st Tdot "'.'" in
  let* point = parse_point st in
  Ok { Term.var = v; point }

let parse_attr_clause st attr =
  let* () = expect st Tlparen "'('" in
  let* x =
    match st.tokens with
    | Tident name :: rest ->
        st.tokens <- rest;
        Ok (var_index st name)
    | _ -> Error "expected a variable"
  in
  let* () = expect st Trparen "')'" in
  let* () = expect st Teq "'='" in
  match (attr, st.tokens) with
  | "color", Tint c :: rest ->
      st.tokens <- rest;
      Ok (Term.Color_is (x, c))
  | ("src" | "dst"), Tident attr2 :: rest when attr2 = attr ->
      st.tokens <- rest;
      let* () = expect st Tlparen "'('" in
      let* y =
        match st.tokens with
        | Tident name :: rest ->
            st.tokens <- rest;
            Ok (var_index st name)
        | _ -> Error "expected a variable"
      in
      let* () = expect st Trparen "')'" in
      if attr = "src" then Ok (Term.Same_src (x, y))
      else Ok (Term.Same_dst (x, y))
  | "color", _ -> Error "expected an integer color"
  | _ -> Error (Printf.sprintf "expected '%s(...)' on the right" attr)

let parse_clause st =
  match st.tokens with
  | Tident (("src" | "dst" | "color") as attr) :: Tlparen :: _ ->
      st.tokens <- List.tl st.tokens;
      let* g = parse_attr_clause st attr in
      Ok (`Guard g)
  | Tident name :: rest ->
      st.tokens <- rest;
      let* before = parse_endpoint st name in
      let* () = expect st Tless "'<'" in
      let* after =
        match st.tokens with
        | Tident name2 :: rest2 ->
            st.tokens <- rest2;
            parse_endpoint st name2
        | _ -> Error "expected an endpoint after '<'"
      in
      Ok (`Conjunct Term.(before @> after))
  | _ -> Error "expected a clause"

let predicate str =
  let* tokens = tokenize str in
  let st = { tokens; vars = Hashtbl.create 8; nvars = 0 } in
  let rec clauses acc =
    let* c = parse_clause st in
    match st.tokens with
    | Tamp :: rest ->
        st.tokens <- rest;
        clauses (c :: acc)
    | [] -> Ok (List.rev (c :: acc))
    | _ -> Error "expected '&' or end of input"
  in
  if st.tokens = [] then Ok (Forbidden.make ~nvars:0 [])
  else
    let* items = clauses [] in
    let conjuncts =
      List.filter_map
        (function `Conjunct c -> Some c | `Guard _ -> None)
        items
    in
    let guards =
      List.filter_map (function `Guard g -> Some g | `Conjunct _ -> None) items
    in
    Ok (Forbidden.make ~nvars:st.nvars ~guards conjuncts)
