(** Concrete syntax for forbidden predicates.

    Grammar (whitespace-insensitive):
    {v
      predicate := clause ( '&' clause )*
      clause    := endpoint '<' endpoint
                 | 'src' '(' var ')' '=' 'src' '(' var ')'
                 | 'dst' '(' var ')' '=' 'dst' '(' var ')'
                 | 'color' '(' var ')' '=' int
      endpoint  := var '.' ( 's' | 'r' )
      var       := letter (letter | digit | '_')*
    v}

    ['<'] is the happened-before relation [▷]. Variables are numbered by
    first appearance, so ["x.s < y.s & y.r < x.r"] is causal ordering with
    [x ↦ 0], [y ↦ 1]. {!Forbidden.pp} prints in this same syntax. *)

val predicate : string -> (Forbidden.t, string) result
(** Parse in one pass over the text; never raises.

    Errors come in two levels. A lexical error is a byte outside the
    grammar (["unexpected character '#' at offset 8"]) or an integer
    literal above [max_int] (["integer literal out of range at offset
    23"]); the offset is that of the byte or of the literal's first
    digit. A syntax error names what was expected (["expected '<'"]).
    The first lexical error in the text wins over any syntax error, even
    one that comes earlier in the text, so the error for a text is the
    same whichever of its faults a reader meets first. *)

val predicate_exn : string -> Forbidden.t
(** @raise Invalid_argument on a syntax error. *)
