(* Canonicalization: pick one representative per alpha-equivalence class.

   The variable renumbering is a tiny canonical-labeling problem (the
   predicate is a colored multigraph over its variables). We solve it the
   classic way: iterated signature refinement to split the variables into
   ordered classes, then exact minimization over the orders consistent
   with the classes. Predicates have single-digit arities in every
   workload we serve, so the exact step is cheap; [max_search] guards the
   pathological fully-symmetric case.

   Everything runs on packed ints. A conjunct, a guard and a refinement
   incidence are each one int whose int order is the lexicographic order
   of the tuple it packs, so the class order and the minimum key, and
   with them every digest, are those of the tuple-list formulation kept
   as the test oracle (test/canon_oracle.ml). Colours are arbitrary
   ints; they enter the packing through their rank among the
   predicate's colours, which preserves their order. *)

let max_search = 40320 (* 8! *)

let point_code = function Mo_order.Event.S -> 0 | Mo_order.Event.R -> 1

let point_of_code = function 0 -> Mo_order.Event.S | _ -> Mo_order.Event.R

(* ---- int-array helpers ------------------------------------------- *)

(* sort a.(lo .. hi-1) ascending: insertion sort for the short runs a
   variable's incidences form, the library sort beyond *)
let sort_range (a : int array) lo hi =
  if hi - lo <= 16 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let s = Array.sub a lo (hi - lo) in
    Array.sort Int.compare s;
    Array.blit s 0 a lo (hi - lo)
  end

(* -1, 0 or 1 as a.(lo .. hi-1) compares with b.(lo .. hi-1) *)
let compare_range (a : int array) (b : int array) lo hi =
  let i = ref lo in
  while !i < hi && a.(!i) = b.(!i) do
    incr i
  done;
  if !i = hi then 0 else if a.(!i) < b.(!i) then -1 else 1

(* ---- the predicate, flattened ------------------------------------ *)

(* Incidence lists in CSR form: the entries of list [v] are
   [start.(v) .. start.(v+1) - 1]. An entry is a constant part [base]
   and the variable [var] whose id or position completes it (-1 for
   none), so completing a code is one multiply-add. *)
type csr = { start : int array; base : int array; var : int array }

let csr nlists (entries : (int * int * int) list) =
  let start = Array.make (nlists + 1) 0 in
  List.iter (fun (v, _, _) -> start.(v + 1) <- start.(v + 1) + 1) entries;
  for v = 1 to nlists do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  let fill = Array.sub start 0 nlists in
  let base = Array.make start.(nlists) 0
  and var = Array.make start.(nlists) 0 in
  List.iter
    (fun (v, b, x) ->
      base.(fill.(v)) <- b;
      var.(fill.(v)) <- x;
      fill.(v) <- fill.(v) + 1)
    entries;
  { start; base; var }

type shape = {
  n : int;
  colors : int array; (* the distinct colours, ascending; rank -> colour *)
  radix : int; (* guard packing radix: max n (number of colours) *)
  out : csr;
      (* conjuncts by their before variable: base (bp * 2n) + ap, var av;
         at position i the code is i * 4n + base + 2 * pos av *)
  gin : csr;
      (* guards by (variable * 3 + tag): for tags 0 and 1 (src, dst) var
         is the partner, and a guard on x and y is listed under both; for
         tag 2 base is the colour rank and var is -1 *)
  sigs : csr;
      (* refinement incidences by variable: base ((kind * a_radix + a) * 2
         + b) * 2n + self, var the neighbour (-1 for a colour); the code
         is base + 2 * the neighbour's id *)
  nconjs : int;
  nguards : int;
}

let color_rank (colors : int array) (c : int) =
  let lo = ref 0 and hi = ref (Array.length colors - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if colors.(mid) < c then lo := mid + 1 else hi := mid
  done;
  !lo

let shape t =
  let n = Forbidden.nvars t in
  let conjs = Forbidden.conjuncts t and guards = Forbidden.guards t in
  let colors =
    List.filter_map
      (function Term.Color_is (_, c) -> Some c | _ -> None)
      guards
    |> List.sort_uniq Int.compare |> Array.of_list
  in
  let ncolors = Array.length colors in
  let a_radix = max 2 ncolors in
  let out = ref [] and gin = ref [] and sigs = ref [] in
  (* a refinement incidence (kind, a, b, neighbour id, self), the order
     its tuple compares in *)
  let inc v kind a b nbr self =
    sigs :=
      (v, ((((((kind * a_radix) + a) * 2) + b) * 2 * n) + self), nbr)
      :: !sigs
  in
  List.iter
    (fun (c : Term.conjunct) ->
      let bv = c.Term.before.Term.var and av = c.Term.after.Term.var in
      let bp = point_code c.Term.before.Term.point
      and ap = point_code c.Term.after.Term.point in
      out := (bv, (bp * 2 * n) + ap, av) :: !out;
      let self = if bv = av then 1 else 0 in
      inc bv 0 bp ap av self;
      inc av 1 ap bp bv self)
    conjs;
  let pair tag x y =
    gin := ((x * 3) + tag, 0, y) :: !gin;
    if x <> y then gin := ((y * 3) + tag, 0, x) :: !gin;
    inc x (2 + tag) 0 0 y 0;
    inc y (2 + tag) 0 0 x 0
  in
  List.iter
    (function
      | Term.Same_src (x, y) -> pair 0 x y
      | Term.Same_dst (x, y) -> pair 1 x y
      | Term.Color_is (x, c) ->
          let r = color_rank colors c in
          gin := ((x * 3) + 2, r, -1) :: !gin;
          inc x 4 r 0 (-1) 0)
    guards;
  {
    n;
    colors;
    radix = max 1 (max n ncolors);
    out = csr n (List.rev !out);
    gin = csr (3 * n) (List.rev !gin);
    sigs = csr n (List.rev !sigs);
    nconjs = List.length conjs;
    nguards = List.length guards;
  }

(* ---- signature refinement ---------------------------------------- *)

(* One refinement round: each variable's new signature is its old id
   plus the sorted multiset of its incidences, with neighbours
   represented by their old ids. Ids are re-assigned by rank (one sort
   of the variables by signature), so they depend only on the structure,
   never on the incoming numbering. [sg] receives the packed signatures,
   [by_sig] the variables in signature order. *)
let refine s prev ids sg by_sig =
  let n = s.n and st = s.sigs.start in
  for v = 0 to n - 1 do
    for e = st.(v) to st.(v + 1) - 1 do
      let nbr = s.sigs.var.(e) in
      (* a colour has no neighbour: its id slot holds 0 *)
      sg.(e) <-
        (if nbr < 0 then s.sigs.base.(e)
         else s.sigs.base.(e) + (2 * prev.(nbr)))
    done;
    sort_range sg st.(v) st.(v + 1)
  done;
  (* (prev id, sorted incidences), a shorter list first on a common
     prefix: the order of the tuple lists this packs *)
  let compare_sig v w =
    if prev.(v) <> prev.(w) then Int.compare prev.(v) prev.(w)
    else begin
      let lv = st.(v + 1) - st.(v) and lw = st.(w + 1) - st.(w) in
      let i = ref 0 in
      while !i < lv && !i < lw && sg.(st.(v) + !i) = sg.(st.(w) + !i) do
        incr i
      done;
      if !i = lv || !i = lw then Int.compare lv lw
      else Int.compare sg.(st.(v) + !i) sg.(st.(w) + !i)
    end
  in
  for v = 0 to n - 1 do
    by_sig.(v) <- v
  done;
  if n <= 16 then
    for i = 1 to n - 1 do
      let v = by_sig.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && compare_sig by_sig.(!j) v > 0 do
        by_sig.(!j + 1) <- by_sig.(!j);
        decr j
      done;
      by_sig.(!j + 1) <- v
    done
  else Array.sort compare_sig by_sig;
  ids.(by_sig.(0)) <- 0;
  for i = 1 to n - 1 do
    let v = by_sig.(i) and u = by_sig.(i - 1) in
    ids.(v) <- (if compare_sig u v = 0 then ids.(u) else ids.(u) + 1)
  done;
  ids.(by_sig.(n - 1)) + 1

(* Refine from the uniform partition until a round keeps the number of
   classes. That is the fixpoint, and it is exact: a round that keeps
   the partition assigns each class its previous (dense) id, because the
   old id leads every signature, so every further round would repeat it.
   A discrete partition is final at once. At most [n] rounds, as each
   non-final round splits a class. *)
let refine_ids s =
  let n = s.n in
  let sg = Array.make (Array.length s.sigs.base) 0 in
  let by_sig = Array.make n 0 in
  let rec go prev ids classes =
    if classes = n then prev
    else
      let classes' = refine s prev ids sg by_sig in
      if classes' = classes then ids else go ids prev classes'
  in
  go (Array.make n 0) (Array.make n 0) 1

(* ---- exact minimization within classes --------------------------- *)

(* A key: the sorted conjunct codes, then the sorted guard codes, under
   one numbering. Conjunct code ((bv * 2 + bp) * n + av) * 2 + ap; guard
   code (tag * n + x) * radix + z, with tag 0 src(x) = src(z), 1
   dst(x) = dst(z) (x <= z), and 2 color(x) = colors.(z). *)
type key = {
  nvars : int;
  conjs : int array;
  guards : int array;
  colors : int array;
  radix : int;
}

(* Write the key of [order] (position -> variable) into [cc]/[cg],
   comparing it with [bc]/[bg] as it goes. Returns -1 when it is smaller
   (always, when [first]), 0 when equal, and 1 as soon as an element is
   larger: the rest is then not built. A variable's conjuncts (those it
   is the before-variable of) form one run of the sorted key at its
   position, and so do its guards of each tag, so each run is sorted on
   its own. *)
let build s ~pos ~order ~first cc cg bc bg =
  let n = s.n in
  for i = 0 to n - 1 do
    pos.(order.(i)) <- i
  done;
  let cmp = ref (if first then -1 else 0) in
  let j = ref 0 and i = ref 0 in
  let o = s.out in
  while !cmp <= 0 && !i < n do
    let v = order.(!i) and lo = !j in
    let at = !i * 4 * n in
    for e = o.start.(v) to o.start.(v + 1) - 1 do
      cc.(!j) <- at + o.base.(e) + (2 * pos.(o.var.(e)));
      incr j
    done;
    sort_range cc lo !j;
    if !cmp = 0 then cmp := compare_range cc bc lo !j;
    incr i
  done;
  let g = s.gin in
  let j = ref 0 and tag = ref 0 in
  while !cmp <= 0 && !tag < 3 do
    let t = !tag in
    let i = ref 0 in
    while !cmp <= 0 && !i < n do
      let v = order.(!i) and lo = !j in
      let at = ((t * n) + !i) * s.radix and slot = (v * 3) + t in
      for e = g.start.(slot) to g.start.(slot + 1) - 1 do
        let z = g.var.(e) in
        if z < 0 then begin
          cg.(!j) <- at + g.base.(e);
          incr j
        end
        else if pos.(z) >= !i then begin
          (* a two-variable guard is listed under both; it is written at
             the smaller position *)
          cg.(!j) <- at + pos.(z);
          incr j
        end
      done;
      sort_range cg lo !j;
      if !cmp = 0 then cmp := compare_range cg bg lo !j;
      incr i
    done;
    incr tag
  done;
  !cmp

(* Advance a.(lo .. hi-1) to its next permutation in lexicographic order;
   after the last one, restore ascending order and return false. *)
let next_permutation (a : int array) lo hi =
  let swap i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  in
  let reverse i j =
    let i = ref i and j = ref j in
    while !i < !j do
      swap !i !j;
      incr i;
      decr j
    done
  in
  let k = ref (hi - 2) in
  while !k >= lo && a.(!k) >= a.(!k + 1) do
    decr k
  done;
  if !k < lo then begin
    reverse lo (hi - 1);
    false
  end
  else begin
    let l = ref (hi - 1) in
    while a.(!l) <= a.(!k) do
      decr l
    done;
    swap !k !l;
    reverse (!k + 1) (hi - 1);
    true
  end

let rec factorial n = if n <= 1 then 1 else n * factorial (n - 1)

let key t =
  let s = shape t in
  let n = s.n in
  let make conjs guards =
    { nvars = n; conjs; guards; colors = s.colors; radix = s.radix }
  in
  if n = 0 then make [||] [||]
  else begin
    let ids = refine_ids s in
    (* the refinement order: classes by id, members ascending *)
    let size = Array.make n 0 in
    Array.iter (fun id -> size.(id) <- size.(id) + 1) ids;
    let nclasses = ref 0 in
    while !nclasses < n && size.(!nclasses) > 0 do
      incr nclasses
    done;
    let start = Array.make (!nclasses + 1) 0 in
    for c = 0 to !nclasses - 1 do
      start.(c + 1) <- start.(c) + size.(c)
    done;
    let order = Array.make n 0 in
    let fill = Array.sub start 0 !nclasses in
    for v = 0 to n - 1 do
      order.(fill.(ids.(v))) <- v;
      fill.(ids.(v)) <- fill.(ids.(v)) + 1
    done;
    (* all variable orders consistent with the class partition (classes
       stay in signature order; members permute within their class), or
       just the refinement order when there are too many. The budget fold
       saturates at [max_search + 1]: a class of more than 8 members
       blows the budget on its own (9! > 8! = max_search), and keeping
       the accumulator at most [max_search] before each multiplication
       keeps the product far from native-int overflow — a fully
       symmetric 21-variable predicate must fall back, not wrap negative
       and enumerate 21! orders. *)
    let budget = ref 1 in
    for c = 0 to !nclasses - 1 do
      if !budget > max_search || size.(c) > 8 then budget := max_search + 1
      else budget := !budget * factorial size.(c)
    done;
    let pos = Array.make n 0 in
    let best = ref (Array.make s.nconjs 0, Array.make s.nguards 0)
    and scratch = ref (Array.make s.nconjs 0, Array.make s.nguards 0) in
    let try_order ~first =
      let bc, bg = !best and cc, cg = !scratch in
      if build s ~pos ~order ~first cc cg bc bg < 0 then begin
        best := (cc, cg);
        scratch := (bc, bg)
      end
    in
    try_order ~first:true;
    if !budget > 1 && !budget <= max_search then begin
      (* walk the orders in place: an odometer whose digits are the
         classes of two or more members, each stepped by
         next_permutation. A class of variables with no incidence at all
         is left out: permuting it never changes the key (the budget
         above still counts it, so the fallback is unchanged). *)
      let st = s.sigs.start in
      let multi =
        List.filter
          (fun c ->
            let v = order.(start.(c)) in
            size.(c) > 1 && st.(v + 1) > st.(v))
          (List.init !nclasses Fun.id)
        |> List.rev |> Array.of_list
      in
      let rec advance d =
        d < Array.length multi
        &&
        let c = multi.(d) in
        next_permutation order start.(c) start.(c + 1) || advance (d + 1)
      in
      while advance 0 do
        try_order ~first:false
      done
    end;
    let bc, bg = !best in
    make bc bg
  end

(* ---- reading a key ----------------------------------------------- *)

let conj_at k j =
  let n = k.nvars and c = k.conjs.(j) in
  let ap = c land 1 and q = c lsr 1 in
  let av = q mod n and q = q / n in
  (q lsr 1, q land 1, av, ap)

(* tag, x, and the partner variable or the colour itself *)
let guard_at k j =
  let n = k.nvars and c = k.guards.(j) in
  let z = c mod k.radix and q = c / k.radix in
  let x = q mod n and tag = q / n in
  (tag, x, if tag = 2 then k.colors.(z) else z)

let of_key k =
  let conjuncts =
    List.init (Array.length k.conjs) (fun j ->
        let bv, bp, av, ap = conj_at k j in
        Term.(
          { var = bv; point = point_of_code bp }
          @> { var = av; point = point_of_code ap }))
  in
  let guards =
    List.init (Array.length k.guards) (fun j ->
        match guard_at k j with
        | 0, x, y -> Term.Same_src (x, y)
        | 1, x, y -> Term.Same_dst (x, y)
        | _, x, c -> Term.Color_is (x, c))
  in
  Forbidden.make ~nvars:k.nvars ~guards conjuncts

let add_int = Forbidden.add_int

(* n=<nvars>|c=<bv>.<bp><<av>.<ap>;...|g=s<x>=<y>;d<x>=<y>;k<x>=<c>;... *)
let render_key k =
  let buf = Buffer.create (16 + (12 * Array.length k.conjs)) in
  Buffer.add_string buf "n=";
  add_int buf k.nvars;
  Buffer.add_string buf "|c=";
  for j = 0 to Array.length k.conjs - 1 do
    let bv, bp, av, ap = conj_at k j in
    add_int buf bv;
    Buffer.add_char buf '.';
    add_int buf bp;
    Buffer.add_char buf '<';
    add_int buf av;
    Buffer.add_char buf '.';
    add_int buf ap;
    Buffer.add_char buf ';'
  done;
  Buffer.add_string buf "|g=";
  for j = 0 to Array.length k.guards - 1 do
    let tag, x, z = guard_at k j in
    Buffer.add_char buf (match tag with 0 -> 's' | 1 -> 'd' | _ -> 'k');
    add_int buf x;
    Buffer.add_char buf '=';
    add_int buf z;
    Buffer.add_char buf ';'
  done;
  Buffer.contents buf

let key_digest k = Digest.to_hex (Digest.string (render_key k))

let predicate t = of_key (key t)

let digest t = key_digest (key t)

let equal a b =
  let ka = key a and kb = key b in
  ka.nvars = kb.nvars
  && Array.length ka.conjs = Array.length kb.conjs
  && Array.length ka.guards = Array.length kb.guards
  && compare_range ka.conjs kb.conjs 0 (Array.length ka.conjs) = 0
  &&
  let same = ref true in
  for j = 0 to Array.length ka.guards - 1 do
    let ta, xa, za = guard_at ka j and tb, xb, zb = guard_at kb j in
    if ta <> tb || xa <> xb || za <> zb then same := false
  done;
  !same

(* ---- specs ------------------------------------------------------- *)

type spec_key = {
  name : string;
  members : (string * key) list; (* by digest, deduplicated *)
  sdigest : string;
}

let spec_key (s : Spec.t) =
  let members =
    List.map
      (fun p ->
        let k = key p in
        (key_digest k, k))
      s.Spec.predicates
    |> List.stable_sort (fun (d1, _) (d2, _) -> String.compare d1 d2)
  in
  let rec dedup = function
    | (d1, _) :: ((d2, _) :: _ as rest) when String.equal d1 d2 ->
        dedup rest
    | m :: rest -> m :: dedup rest
    | [] -> []
  in
  let members = dedup members in
  (* each member's digest is its canonical form's digest too
     (canonicalization is idempotent), so this is the digest of the
     canonical spec without canonicalizing it again *)
  let sdigest =
    Digest.to_hex
      (Digest.string
         (String.concat ""
            [
              "spec:";
              string_of_int (List.length members);
              ":";
              String.concat "," (List.map fst members);
            ]))
  in
  { name = s.Spec.name; members; sdigest }

let spec_key_digest sk = sk.sdigest

let of_spec_key sk =
  Spec.make ~name:sk.name (List.map (fun (_, k) -> of_key k) sk.members)

let spec s = of_spec_key (spec_key s)

let spec_digest s = (spec_key s).sdigest
