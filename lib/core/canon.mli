(** Canonical forms and stable digests for predicates and specs.

    Two forbidden predicates that differ only in the numbering of their
    message variables, the order of their conjuncts, or the writing
    direction of symmetric guards denote the same specification — the
    existential quantifier in Definition 4.1 makes [X_B] invariant under
    any bijective renaming of [x_1 … x_m]. Real query streams are heavily
    repetitive modulo exactly these presentational choices, so the
    decision cache in [Mo_service] keys on the canonical form computed
    here: one cache entry per alpha-equivalence class.

    Canonicalization performs, in order:
    - guard normalization: [src(x)=src(y)] and [dst(x)=dst(y)] are
      symmetric, so their arguments are sorted;
    - variable renumbering: variables are partitioned by an iterated
      structural signature (a Weisfeiler–Leman-style refinement over the
      conjunct/guard incidence structure), then the renumbering that
      minimizes the sorted conjunct list is chosen among the orders
      consistent with that partition;
    - conjunct and guard sorting under the new numbering.

    Refinement stops at its fixpoint: the first round that keeps the
    number of classes, or at once when every variable is alone in its
    class. That is exact — once the partition is stable each class keeps
    its id, so every further round is the identity — and on the
    service's traffic it comes after about two rounds. The exact search
    walks the class-consistent orders in place, builds each candidate's
    packed key into a reused array and abandons a candidate at its first
    element above the best so far; classes of variables that occur in no
    conjunct or guard are not permuted, as that never changes the key.
    Its worst case is a single class of 8 interchangeable variables: the
    complete 8-variable predicate (all 56 [xi.s < xj.r]) visits all 8!
    orders and ties every one of them, in about 40 ms (min of 15 runs)
    on one core of a 2-core x86-64 host.

    The result is a normal form: any two alpha-equivalent predicates map
    to structurally equal canonical predicates (hence equal digests), as
    long as the within-class permutation search is not truncated (see
    {!max_search}). Canonicalization never changes the denoted
    specification, and — because {!Classify.classify} is a function of
    the predicate graph up to variable renaming — it preserves the
    verdict, the cycle orders and [necessity_exact] exactly. The property
    suite pins this obligation over thousands of random renaming pairs. *)

val predicate : Forbidden.t -> Forbidden.t
(** The canonical representative of the predicate's alpha-equivalence
    class. Idempotent. *)

val digest : Forbidden.t -> string
(** Stable hex digest (MD5 of an unambiguous rendering) of
    [predicate t]. Equal for alpha-equivalent predicates; independent of
    process, host and session. *)

val spec : Spec.t -> Spec.t
(** Member predicates canonicalized, sorted by digest and deduplicated;
    the spec name is preserved (it is not part of {!spec_digest}). *)

val spec_digest : Spec.t -> string
(** Digest of the canonical member multiset — the cache key for
    spec-level operations such as [minimize]. *)

val equal : Forbidden.t -> Forbidden.t -> bool
(** Alpha-equivalence: structural equality of canonical forms, compared
    directly (not through {!digest}, so a hash collision cannot make
    distinct predicates equal). Strictly coarser than {!Forbidden.equal}
    and strictly finer than semantic equivalence
    ({!Implies.equivalent}). *)

type key

val key : Forbidden.t -> key
(** The canonical form, packed: what {!predicate} materializes and
    {!digest} renders. Computing it is the whole cost of
    canonicalization; the service computes it once per request. *)

val key_digest : key -> string
(** [key_digest (key t) = digest t]. *)

val of_key : key -> Forbidden.t
(** [of_key (key t) = predicate t]. *)

type spec_key
(** A spec's members canonicalized once each, sorted by digest and
    deduplicated. *)

val spec_key : Spec.t -> spec_key

val spec_key_digest : spec_key -> string
(** [spec_key_digest (spec_key s) = spec_digest s]. *)

val of_spec_key : spec_key -> Spec.t
(** [of_spec_key (spec_key s) = spec s]. *)

val max_search : int
(** Safety valve: the permutation search enumerates at most this many
    orders (per predicate) within signature classes. Predicates whose
    refined signature classes are so symmetric that the bound is hit fall
    back to the refinement order — still deterministic, but two
    exotic renamings may then digest differently (a cache miss, never an
    unsoundness). Unreachable for the arities the paper and the catalog
    use. *)
