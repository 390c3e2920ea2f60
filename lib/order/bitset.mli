(** Fixed-capacity bit sets over the universe [0 .. capacity-1].

    Used as the reachability rows of {!Poset}. Mutable by design: closure
    computation updates rows in place; callers that need persistence use
    {!copy}. *)

type t

val create : int -> t
(** [create n] is the empty set with capacity [n]. *)

val capacity : t -> int

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] adds every element of [src] to [dst]. The two sets
    must have the same capacity. *)

val inter_into : dst:t -> t -> unit

val diff_into : dst:t -> t -> unit
(** [diff_into ~dst src] removes every element of [src] from [dst]. *)

val set_all : t -> unit
(** Make [t] the full universe [{0 .. capacity-1}]. *)

val copy : t -> t

val copy_into : dst:t -> t -> unit
(** [copy_into ~dst src] overwrites [dst] with the contents of [src]. *)

val lowest_bit : int -> int
(** [lowest_bit w] is the index of the least significant set bit of the
    non-zero int word [w] — the step for walking a packed int row's
    members in ascending order. *)

val cardinal : t -> int

val is_empty : t -> bool

val equal : t -> t -> bool

val subset : t -> t -> bool
(** [subset a b] is [true] when every element of [a] is in [b]. *)

val iter : (int -> unit) -> t -> unit

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val elements : t -> int list

val of_list : int -> int list -> t

val pp : Format.formatter -> t -> unit
