type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing — one emitter for the compact and the pretty form. Strings *)
(* are copied by runs of bytes that need no escape.                    *)

let hex_digit = "0123456789abcdef"

(* [s.[run..i)] needs no escape and is not yet in [buf] *)
let rec escape_from buf s run i =
  if i = String.length s then Buffer.add_substring buf s run (i - run)
  else
    match String.unsafe_get s i with
    | ('"' | '\\' | '\000' .. '\031') as c ->
        Buffer.add_substring buf s run (i - run);
        (match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c ->
            Buffer.add_string buf "\\u00";
            Buffer.add_char buf hex_digit.[Char.code c lsr 4];
            Buffer.add_char buf hex_digit.[Char.code c land 15]);
        escape_from buf s (i + 1) (i + 1)
    | _ -> escape_from buf s run (i + 1)

let escape buf s =
  Buffer.add_char buf '"';
  escape_from buf s 0 0;
  Buffer.add_char buf '"'

(* [string_of_int]'s bytes, without the intermediate string: the
   digits of [x <= 0], most significant first, so [min_int] needs no
   special case *)
let rec add_nonpos buf x =
  if x <= -10 then add_nonpos buf (x / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (x mod 10)))

let add_int buf x =
  if x < 0 then begin
    Buffer.add_char buf '-';
    add_nonpos buf x
  end
  else add_nonpos buf (-x)

let float_repr f =
  (* JSON has no NaN/Infinity; clamp to null-ish sentinels is overkill for
     virtual-time metrics, so print a lossless-enough fixed form *)
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

(* the pretty form breaks the line and indents [level] steps before each
   item and each closing bracket; the compact form writes nothing *)
let newline buf ~indent level =
  if indent then begin
    Buffer.add_char buf '\n';
    for _ = 1 to level do
      Buffer.add_string buf "  "
    done
  end

let rec emit buf ~indent level = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape buf s
  | List [] -> Buffer.add_string buf "[]"
  | List (item :: items) ->
      Buffer.add_char buf '[';
      newline buf ~indent (level + 1);
      emit buf ~indent (level + 1) item;
      emit_items buf ~indent (level + 1) items;
      newline buf ~indent level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (field :: fields) ->
      Buffer.add_char buf '{';
      newline buf ~indent (level + 1);
      emit_field buf ~indent (level + 1) field;
      emit_fields buf ~indent (level + 1) fields;
      newline buf ~indent level;
      Buffer.add_char buf '}'

and emit_items buf ~indent level = function
  | [] -> ()
  | item :: items ->
      Buffer.add_char buf ',';
      newline buf ~indent level;
      emit buf ~indent level item;
      emit_items buf ~indent level items

and emit_field buf ~indent level (k, v) =
  escape buf k;
  Buffer.add_string buf (if indent then ": " else ":");
  emit buf ~indent level v

and emit_fields buf ~indent level = function
  | [] -> ()
  | field :: fields ->
      Buffer.add_char buf ',';
      newline buf ~indent level;
      emit_field buf ~indent level field;
      emit_fields buf ~indent level fields

let to_buffer buf v = emit buf ~indent:false 0 v

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

let to_string_pretty v =
  let buf = Buffer.create 1024 in
  emit buf ~indent:true 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing — a recursive-descent reader for the dialect we emit, plus  *)
(* the usual JSON escapes. Numbers with '.', 'e' or 'E' become Float;  *)
(* everything else integral becomes Int. One cursor walks the text by  *)
(* index; a string without a backslash is one [String.sub].            *)

exception Parse_error of string

(* the document is [s.[base..lim)]; errors report [i - base] *)
type cursor = { s : string; base : int; lim : int; mutable i : int }

let error c fmt =
  Printf.ksprintf
    (fun m -> raise (Parse_error (Printf.sprintf "at %d: %s" (c.i - c.base) m)))
    fmt

let rec skip_ws c =
  if c.i < c.lim then
    match String.unsafe_get c.s c.i with
    | ' ' | '\t' | '\n' | '\r' ->
        c.i <- c.i + 1;
        skip_ws c
    | _ -> ()

(* the byte under the cursor, when there is one, is [ch] *)
let at c ch = c.i < c.lim && String.unsafe_get c.s c.i = ch

let expect c ch =
  if at c ch then c.i <- c.i + 1
  else if c.i < c.lim then error c "expected %C, found %C" ch c.s.[c.i]
  else error c "expected %C, found end of input" ch

let literal c word v =
  let n = String.length word in
  let rec same k = k = n || (c.s.[c.i + k] = word.[k] && same (k + 1)) in
  if c.i + n <= c.lim && same 0 then begin
    c.i <- c.i + n;
    v
  end
  else error c "bad literal"

(* the cursor is just past a backslash *)
let unescape c buf =
  if c.i >= c.lim then error c "bad escape";
  let simple ch =
    Buffer.add_char buf ch;
    c.i <- c.i + 1
  in
  match c.s.[c.i] with
  | '"' -> simple '"'
  | '\\' -> simple '\\'
  | '/' -> simple '/'
  | 'n' -> simple '\n'
  | 'r' -> simple '\r'
  | 't' -> simple '\t'
  | 'b' -> simple '\b'
  | 'f' -> simple '\012'
  | 'u' ->
      c.i <- c.i + 1;
      if c.i + 4 > c.lim then error c "truncated \\u escape";
      let hex = String.sub c.s c.i 4 in
      (match int_of_string_opt ("0x" ^ hex) with
      | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
      | Some code ->
          (* non-ASCII escapes: re-encode as UTF-8 *)
          if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
      | None -> error c "bad \\u escape %S" hex);
      c.i <- c.i + 4
  | _ -> error c "bad escape"

(* [c.s.[run..j)] is string text not yet copied; [buf] exists once an
   escape has been met *)
let rec scan_string c buf run j =
  if j >= c.lim then begin
    c.i <- c.lim;
    error c "unterminated string"
  end
  else
    match String.unsafe_get c.s j with
    | '"' -> (
        c.i <- j + 1;
        match buf with
        | None -> String.sub c.s run (j - run)
        | Some b ->
            Buffer.add_substring b c.s run (j - run);
            Buffer.contents b)
    | '\\' ->
        let b =
          match buf with Some b -> b | None -> Buffer.create (j - run + 16)
        in
        Buffer.add_substring b c.s run (j - run);
        c.i <- j + 1;
        unescape c b;
        scan_string c (Some b) c.i c.i
    | _ -> scan_string c buf run (j + 1)

let parse_string c =
  expect c '"';
  scan_string c None c.i c.i

(* a number's span runs over the bytes [0-9+-.eE]; this sets the
   cursor to its end and says whether it has a '.', 'e' or 'E' *)
let rec scan_number c j is_float =
  if j < c.lim then
    match String.unsafe_get c.s j with
    | '0' .. '9' | '-' | '+' -> scan_number c (j + 1) is_float
    | '.' | 'e' | 'E' -> scan_number c (j + 1) true
    | _ ->
        c.i <- j;
        is_float
  else begin
    c.i <- j;
    is_float
  end

(* the span is handed whole to [float_of_string_opt] or
   [int_of_string_opt], so the accepted set is theirs *)
let parse_number c =
  let start = c.i in
  let is_float = scan_number c start false in
  let text = String.sub c.s start (c.i - start) in
  if is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> error c "bad number %S" text
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> error c "bad number %S" text

let rec parse_value c =
  skip_ws c;
  if c.i >= c.lim then error c "unexpected end of input";
  match String.unsafe_get c.s c.i with
  | '"' -> String (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '-' | '0' .. '9' -> parse_number c
  | '[' ->
      c.i <- c.i + 1;
      skip_ws c;
      if at c ']' then begin
        c.i <- c.i + 1;
        List []
      end
      else parse_items c []
  | '{' ->
      c.i <- c.i + 1;
      skip_ws c;
      if at c '}' then begin
        c.i <- c.i + 1;
        Obj []
      end
      else parse_fields c []
  | ch -> error c "unexpected %C" ch

and parse_items c acc =
  let v = parse_value c in
  skip_ws c;
  if at c ',' then begin
    c.i <- c.i + 1;
    parse_items c (v :: acc)
  end
  else if at c ']' then begin
    c.i <- c.i + 1;
    List (List.rev (v :: acc))
  end
  else error c "expected ',' or ']'"

and parse_fields c acc =
  skip_ws c;
  let k = parse_string c in
  skip_ws c;
  expect c ':';
  let v = parse_value c in
  skip_ws c;
  if at c ',' then begin
    c.i <- c.i + 1;
    parse_fields c ((k, v) :: acc)
  end
  else if at c '}' then begin
    c.i <- c.i + 1;
    Obj (List.rev ((k, v) :: acc))
  end
  else error c "expected ',' or '}'"

let parse s base lim =
  let c = { s; base; lim; i = base } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.i <> lim then error c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error m -> Error m

let of_string s = parse s 0 (String.length s)

let of_bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Jsonb.of_bytes";
  (* safe: every string in the result is a fresh copy, and the parse
     finishes before the caller can touch [b] again *)
  parse (Bytes.unsafe_to_string b) pos (pos + len)
