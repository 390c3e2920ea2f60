(* One pass over the text: a lexer with one token of lookahead feeds a
   recursive-descent parser directly, with no token list. Keywords are
   compared in place; only a variable's name is copied, to look it up
   among the first appearances. *)

type token = Ident | Int | Dot | Less | Amp | Eq | Lparen | Rparen | Eof

type lexer = {
  s : string;
  mutable pos : int; (* the first byte after the current token *)
  mutable tok : token;
  mutable start : int; (* the current token's first byte *)
  mutable value : int; (* an [Int] token's value *)
  vars : (string, int) Hashtbl.t; (* numbered by first appearance *)
}

(* a lexical error (a byte outside the grammar, an out-of-range
   integer) is reported before any syntax error, wherever it is in the
   text *)
exception Lex_error of string

exception Syntax_error of string

let is_digit c = c >= '0' && c <= '9'

let rec skip_ws s i =
  if i < String.length s then
    match String.unsafe_get s i with
    | ' ' | '\t' | '\n' | '\r' -> skip_ws s (i + 1)
    | _ -> i
  else i

let set lx tok pos =
  lx.tok <- tok;
  lx.pos <- pos

let rec read_ident lx i =
  if i < String.length lx.s then
    match String.unsafe_get lx.s i with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> read_ident lx (i + 1)
    | _ -> set lx Ident i
  else set lx Ident i

(* the decimal at [start], read up to its last digit *)
let rec read_int lx start i acc =
  if i < String.length lx.s && is_digit (String.unsafe_get lx.s i) then begin
    let d = Char.code (String.unsafe_get lx.s i) - 48 in
    if acc > (max_int - d) / 10 then
      raise
        (Lex_error
           (Printf.sprintf "integer literal out of range at offset %d" start));
    read_int lx start (i + 1) ((acc * 10) + d)
  end
  else begin
    lx.tok <- Int;
    lx.value <- acc;
    lx.pos <- i
  end

let next lx =
  let s = lx.s in
  let i = skip_ws s lx.pos in
  lx.start <- i;
  if i >= String.length s then set lx Eof i
  else
    match String.unsafe_get s i with
    | '.' -> set lx Dot (i + 1)
    | '<' -> set lx Less (i + 1)
    | '&' -> set lx Amp (i + 1)
    | '=' -> set lx Eq (i + 1)
    | '(' -> set lx Lparen (i + 1)
    | ')' -> set lx Rparen (i + 1)
    | '0' .. '9' -> read_int lx i i 0
    | 'a' .. 'z' | 'A' .. 'Z' -> read_ident lx (i + 1)
    | c ->
        raise
          (Lex_error (Printf.sprintf "unexpected character %C at offset %d" c i))

let syntax msg = raise (Syntax_error msg)

let expect lx tok msg = if lx.tok = tok then next lx else syntax msg

(* the current token is the identifier [word] *)
let is_word lx word =
  lx.tok = Ident
  && lx.pos - lx.start = String.length word
  &&
  let rec same k =
    k = String.length word
    || (String.unsafe_get lx.s (lx.start + k) = String.unsafe_get word k
       && same (k + 1))
  in
  same 0

(* the current identifier's variable, numbered by first appearance *)
let var_index lx =
  let name = String.sub lx.s lx.start (lx.pos - lx.start) in
  match Hashtbl.find_opt lx.vars name with
  | Some v -> v
  | None ->
      let v = Hashtbl.length lx.vars in
      Hashtbl.add lx.vars name v;
      v

let variable lx =
  if lx.tok <> Ident then syntax "expected a variable";
  let v = var_index lx in
  next lx;
  v

let endpoint lx =
  let var = var_index lx in
  next lx;
  expect lx Dot "expected '.'";
  let point =
    if is_word lx "s" then Mo_order.Event.S
    else if is_word lx "r" then Mo_order.Event.R
    else syntax "expected 's' or 'r' after '.'"
  in
  next lx;
  { Term.var; point }

(* attr '(' var ')' '=' ( attr '(' var ')' | int ); the current token is
   the '(' after [attr] *)
let guard lx attr =
  next lx;
  let x = variable lx in
  expect lx Rparen "expected ')'";
  expect lx Eq "expected '='";
  match attr with
  | `Color ->
      if lx.tok <> Int then syntax "expected an integer color";
      let c = lx.value in
      next lx;
      Term.Color_is (x, c)
  | (`Src | `Dst) as attr ->
      let word = if attr = `Src then "src" else "dst" in
      if not (is_word lx word) then
        syntax (Printf.sprintf "expected '%s(...)' on the right" word);
      next lx;
      expect lx Lparen "expected '('";
      let y = variable lx in
      expect lx Rparen "expected ')'";
      if attr = `Src then Term.Same_src (x, y) else Term.Same_dst (x, y)

let rec clauses lx conjuncts guards =
  if lx.tok <> Ident then syntax "expected a clause";
  let attr =
    if is_word lx "src" then Some `Src
    else if is_word lx "dst" then Some `Dst
    else if is_word lx "color" then Some `Color
    else None
  in
  let lparen_next () =
    let i = skip_ws lx.s lx.pos in
    i < String.length lx.s && lx.s.[i] = '('
  in
  let conjuncts, guards =
    match attr with
    | Some attr when lparen_next () ->
        next lx;
        (conjuncts, guard lx attr :: guards)
    | _ ->
        let before = endpoint lx in
        expect lx Less "expected '<'";
        if lx.tok <> Ident then syntax "expected an endpoint after '<'";
        let after = endpoint lx in
        (Term.(before @> after) :: conjuncts, guards)
  in
  match lx.tok with
  | Amp ->
      next lx;
      clauses lx conjuncts guards
  | Eof ->
      Forbidden.make ~nvars:(Hashtbl.length lx.vars) ~guards:(List.rev guards)
        (List.rev conjuncts)
  | _ -> syntax "expected '&' or end of input"

let predicate str =
  let lx =
    {
      s = str;
      pos = 0;
      tok = Eof;
      start = 0;
      value = 0;
      vars = Hashtbl.create 8;
    }
  in
  match
    next lx;
    if lx.tok = Eof then Forbidden.make ~nvars:0 [] else clauses lx [] []
  with
  | p -> Ok p
  | exception Lex_error e -> Error e
  | exception Syntax_error e -> (
      (* the rest of the text may still hold a lexical error *)
      match
        while lx.tok <> Eof do
          next lx
        done
      with
      | () -> Error e
      | exception Lex_error e -> Error e)

let predicate_exn str =
  match predicate str with
  | Ok p -> p
  | Error e -> invalid_arg ("Parse.predicate: " ^ e)
