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
(** Compact (single-line) serialization with full string escaping. *)

val to_buffer : Buffer.t -> t -> unit
(** [to_string], appended to a buffer. *)

val to_string_pretty : t -> string
(** Two-space indented serialization, trailing newline. *)

val of_string : string -> (t, string) result
(** Parse a JSON document (the dialect {!to_string} emits, plus standard
    escapes and whitespace). Numbers containing ['.'], ['e'] or ['E']
    become [Float], the rest [Int]; object field order is preserved.
    Round-trip law: [of_string (to_string v) = Ok v] for every [v] whose
    floats are finite. Used by the bench-regression gate to compare fresh
    exports against committed baselines. *)
