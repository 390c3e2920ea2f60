(** A minimal JSON tree and serializer (stdlib-only).

    Just enough structure for the observability exports: objects keep the
    insertion order of their fields, so a registry dumped twice under the
    same seed produces byte-identical output — the property the bench
    artifacts and the CLI tests rely on. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) serialization with full string escaping:
    ['"'], ['\\'], newline, carriage return and tab get their two-byte
    escapes, the other bytes below [0x20] [\u00XX], and every other
    byte (UTF-8 included) is copied as it is, by runs. A size pass
    comes first, so the text is written once, into a string of exactly
    its length. *)

val compact_size : t -> int
(** [String.length (to_string v)], without printing. *)

val blit : Bytes.t -> int -> t -> int
(** [blit b pos v] writes [to_string v] into [b] at [pos] and returns
    the position just past it: the emitter of {!to_string}, for callers
    that assemble several documents into one byte run.
    @raise Invalid_argument if the text does not fit in [b]. *)

val int_size : int -> int
(** [String.length (string_of_int x)], without printing. *)

val blit_int : Bytes.t -> int -> int -> int
(** [blit_int b pos x] writes [string_of_int x] into [b] at [pos] and
    returns the position just past it — the integer printer of
    {!to_string}, [min_int] included.
    @raise Invalid_argument if the digits do not fit in [b]. *)

val to_string_pretty : t -> string
(** Two-space indented serialization, trailing newline. The same emitter
    as {!to_string}, breaking lines and indenting around each item. *)

val of_string : string -> (t, string) result
(** Parse a JSON document (the dialect {!to_string} emits, plus standard
    escapes and whitespace). Numbers containing ['.'], ['e'] or ['E']
    become [Float] (through [float_of_string_opt]), the rest [Int]
    (through [int_of_string_opt], so an out-of-range integer is an
    error); a [\u] escape takes exactly four hex digits; object field
    order is preserved. Errors read
    ["at <offset>: <reason>"].

    Round-trip law: [of_string (to_string v) = Ok v] and
    [of_string (to_string_pretty v) = Ok v] for every [v] whose floats
    print exactly (integral floats below [1e15], or six significant
    digits). Used by the bench-regression gate to compare fresh exports
    against committed baselines, and by mopcd on every request frame.

    Cost: one pass over the text by index, allocating only the tree. A
    string without a backslash is one [String.sub]; a number's span is
    one [String.sub] handed to [int_of_string_opt] or
    [float_of_string_opt]. *)

val of_bytes : Bytes.t -> pos:int -> len:int -> (t, string) result
(** [of_string] of the [len] bytes at [pos], without copying them first;
    offsets in errors count from [pos]. The result shares no memory with
    the bytes.
    @raise Invalid_argument if the range is not inside the bytes. *)
