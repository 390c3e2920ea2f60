(** Forbidden predicates (Definition 4.1).

    A predicate [B ≡ ∃ x_1 … x_m ∈ M : ⋀ (x_j.p ▷ x_k.q)] denotes the
    specification [X_B = { (H,▷) : ¬B(x̄) for all instantiations }] — the
    runs in which the forbidden pattern never occurs. Guards restrict which
    instantiations are considered. *)

type t = private {
  nvars : int;
  conjuncts : Term.conjunct list;
  guards : Term.guard list;
}

val make :
  nvars:int -> ?guards:Term.guard list -> Term.conjunct list -> t
(** @raise Invalid_argument if a conjunct or guard mentions a variable
    outside [0 .. nvars-1]. Duplicate conjuncts are removed. *)

val nvars : t -> int

val conjuncts : t -> Term.conjunct list

val guards : t -> Term.guard list

val is_guarded : t -> bool

type simplified =
  | Simplified of t
      (** Tautological same-variable conjuncts ([x.s ▷ x.r], true in every
          complete run) removed; the result denotes the same
          specification. *)
  | Unsatisfiable
      (** Some same-variable conjunct ([x.r ▷ x.s], [x.p ▷ x.p]) can hold in
          no partial order, so [B] never holds and [X_B = X_async]. *)

val simplify : t -> simplified

val rename : t -> keep:int list -> t
(** Restrict to the given variables (renumbered in list order), dropping
    conjuncts and guards that mention others. Used when extracting the
    predicate of a cycle. *)

val equal : t -> t -> bool
(** Structural equality (same conjunct and guard sets, same arity). *)

val pp : Format.formatter -> t -> unit
(** Concrete syntax accepted by {!Parse.predicate}, e.g.
    ["x0.s < x1.s & x1.r < x0.r"]. *)

val to_string : t -> string

val add_int : Buffer.t -> int -> unit
(** [add_int buf i] appends [string_of_int i]'s bytes to [buf] without
    building the string; shared by {!to_string} and [Canon]'s key
    printer. *)
