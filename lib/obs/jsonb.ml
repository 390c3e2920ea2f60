type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing — one emitter for the compact and the pretty form. A size  *)
(* pass first, then the text is written into bytes of exactly that     *)
(* size. Strings are copied by runs of bytes that need no escape.      *)

let hex_digit = "0123456789abcdef"

(* the escaped length of [s.[i..)], [n] counted so far *)
let rec escaped_from s i n =
  if i = String.length s then n
  else
    match String.unsafe_get s i with
    | '"' | '\\' | '\n' | '\r' | '\t' -> escaped_from s (i + 1) (n + 2)
    | '\000' .. '\031' -> escaped_from s (i + 1) (n + 6)
    | _ -> escaped_from s (i + 1) (n + 1)

let escaped_size s = escaped_from s 0 2

let put2 b pos c1 c2 =
  Bytes.set b pos c1;
  Bytes.set b (pos + 1) c2;
  pos + 2

(* [s.[run..i)] needs no escape and is not yet in [b]; [pos] is where it
   goes *)
let rec escape_from b pos s run i =
  if i = String.length s then begin
    Bytes.blit_string s run b pos (i - run);
    pos + i - run
  end
  else
    match String.unsafe_get s i with
    | ('"' | '\\' | '\000' .. '\031') as c ->
        Bytes.blit_string s run b pos (i - run);
        let pos = pos + i - run in
        let pos =
          match c with
          | '"' -> put2 b pos '\\' '"'
          | '\\' -> put2 b pos '\\' '\\'
          | '\n' -> put2 b pos '\\' 'n'
          | '\r' -> put2 b pos '\\' 'r'
          | '\t' -> put2 b pos '\\' 't'
          | c ->
              let pos = put2 b pos '\\' 'u' in
              let pos = put2 b pos '0' '0' in
              put2 b pos hex_digit.[Char.code c lsr 4]
                hex_digit.[Char.code c land 15]
        in
        escape_from b pos s (i + 1) (i + 1)
    | _ -> escape_from b pos s run (i + 1)

let escape b pos s =
  Bytes.set b pos '"';
  let pos = escape_from b (pos + 1) s 0 0 in
  Bytes.set b pos '"';
  pos + 1

(* [string_of_int]'s length and bytes, without the intermediate string.
   The digits are taken from [x <= 0], so [min_int] needs no special
   case. *)
let int_size x =
  let rec digits x n = if x <= -10 then digits (x / 10) (n + 1) else n in
  if x < 0 then digits x 2 else digits (-x) 1

(* the digits of [x <= 0], least significant at [i] *)
let rec blit_digits b x i =
  Bytes.set b i (Char.unsafe_chr (48 - (x mod 10)));
  if x <= -10 then blit_digits b (x / 10) (i - 1)

let blit_int b pos x =
  let stop = pos + int_size x in
  if x < 0 then begin
    Bytes.set b pos '-';
    blit_digits b x (stop - 1)
  end
  else blit_digits b (-x) (stop - 1);
  stop

let float_repr f =
  (* JSON has no NaN/Infinity; clamp to null-ish sentinels is overkill for
     virtual-time metrics, so print a lossless-enough fixed form *)
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

(* the pretty form breaks the line and indents [level] steps before each
   item and each closing bracket; the compact form writes nothing *)
let newline_size ~indent level = if indent then 1 + (2 * level) else 0

let newline b pos ~indent level =
  if indent then begin
    Bytes.set b pos '\n';
    Bytes.fill b (pos + 1) (2 * level) ' ';
    pos + 1 + (2 * level)
  end
  else pos

let rec size ~indent level = function
  | Null -> 4
  | Bool b -> if b then 4 else 5
  | Int i -> int_size i
  | Float f -> String.length (float_repr f)
  | String s -> escaped_size s
  | List [] | Obj [] -> 2
  | List items ->
      items_size ~indent (level + 1) items + 1 + newline_size ~indent level
  | Obj fields ->
      fields_size ~indent (level + 1) fields + 1 + newline_size ~indent level

(* each item with its separator (the opening bracket stands in for the
   first one) and the line break before it *)
and items_size ~indent level = function
  | [] -> 0
  | item :: items ->
      1 + newline_size ~indent level + size ~indent level item
      + items_size ~indent level items

and fields_size ~indent level = function
  | [] -> 0
  | (k, v) :: fields ->
      1 + newline_size ~indent level + escaped_size k
      + (if indent then 2 else 1)
      + size ~indent level v
      + fields_size ~indent level fields

let blit_word b pos w =
  Bytes.blit_string w 0 b pos (String.length w);
  pos + String.length w

let rec emit b pos ~indent level = function
  | Null -> blit_word b pos "null"
  | Bool x -> blit_word b pos (if x then "true" else "false")
  | Int i -> blit_int b pos i
  | Float f -> blit_word b pos (float_repr f)
  | String s -> escape b pos s
  | List [] -> blit_word b pos "[]"
  | Obj [] -> blit_word b pos "{}"
  | List items ->
      let pos = emit_items b pos '[' ~indent (level + 1) items in
      let pos = newline b pos ~indent level in
      Bytes.set b pos ']';
      pos + 1
  | Obj fields ->
      let pos = emit_fields b pos '{' ~indent (level + 1) fields in
      let pos = newline b pos ~indent level in
      Bytes.set b pos '}';
      pos + 1

(* [sep] goes before the first item (the opening bracket), ',' before
   every other *)
and emit_items b pos sep ~indent level = function
  | [] -> pos
  | item :: items ->
      Bytes.set b pos sep;
      let pos = newline b (pos + 1) ~indent level in
      let pos = emit b pos ~indent level item in
      emit_items b pos ',' ~indent level items

and emit_fields b pos sep ~indent level = function
  | [] -> pos
  | (k, v) :: fields ->
      Bytes.set b pos sep;
      let pos = newline b (pos + 1) ~indent level in
      let pos = escape b pos k in
      let pos = blit_word b pos (if indent then ": " else ":") in
      let pos = emit b pos ~indent level v in
      emit_fields b pos ',' ~indent level fields

let compact_size v = size ~indent:false 0 v

let blit b pos v = emit b pos ~indent:false 0 v

let to_string v =
  let b = Bytes.create (compact_size v) in
  ignore (blit b 0 v);
  Bytes.unsafe_to_string b

let to_string_pretty v =
  let n = size ~indent:true 0 v in
  let b = Bytes.create (n + 1) in
  Bytes.set b (emit b 0 ~indent:true 0 v) '\n';
  Bytes.unsafe_to_string b

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

(* the value of four hex digits, or -1 when [hex] is anything else *)
let hex4 hex =
  let digit ch =
    match ch with
    | '0' .. '9' -> Char.code ch - 48
    | 'a' .. 'f' -> Char.code ch - 87
    | 'A' .. 'F' -> Char.code ch - 55
    | _ -> -1
  in
  String.fold_left
    (fun acc ch ->
      let d = digit ch in
      if acc < 0 || d < 0 then -1 else (acc * 16) + d)
    0 hex

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
      (match hex4 hex with
      | code when code < 0 -> error c "bad \\u escape %S" hex
      | code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
      | code ->
          (* non-ASCII escapes: re-encode as UTF-8 *)
          if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end);
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
