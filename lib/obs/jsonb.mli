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
    byte (UTF-8 included) is copied as it is, by runs. *)

val to_buffer : Buffer.t -> t -> unit
(** [to_string], appended to a buffer. *)

val to_string_pretty : t -> string
(** Two-space indented serialization, trailing newline. The same emitter
    as {!to_string}, breaking lines and indenting around each item. *)

val of_string : string -> (t, string) result
(** Parse a JSON document (the dialect {!to_string} emits, plus standard
    escapes and whitespace). Numbers containing ['.'], ['e'] or ['E']
    become [Float] (through [float_of_string_opt]), the rest [Int]
    (through [int_of_string_opt], so an out-of-range integer is an
    error); object field order is preserved. Errors read
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
