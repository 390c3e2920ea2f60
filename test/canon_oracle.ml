(* The reference canonicalizer, kept as the oracle for [Mo_core.Canon]:
   n rounds of signature refinement over 5-tuple lists ranked by a
   linear search, the class-consistent orders materialized as lists, and
   a Printf rendering. [Canon] must produce byte-identical digests,
   canonical predicates and spec digests (test_canon pins this), so a
   cache key or a persisted snapshot written by either stays valid.
   [forbidden_to_string] is the [Format] printer that
   [Forbidden.to_string] replaced, kept for the same purpose. *)

open Mo_core

let max_search = 40320 (* 8! *)

let point_code = function Mo_order.Event.S -> 0 | Mo_order.Event.R -> 1

let point_of_code = function 0 -> Mo_order.Event.S | _ -> Mo_order.Event.R

(* conjunct as (before var, before point, after var, after point) *)
let conjunct_tuple (c : Term.conjunct) =
  ( c.Term.before.Term.var,
    point_code c.Term.before.Term.point,
    c.Term.after.Term.var,
    point_code c.Term.after.Term.point )

(* guards with symmetric arguments sorted; the tag orders guard kinds *)
type gkey = Gsrc of int * int | Gdst of int * int | Gcolor of int * int

let guard_key (g : Term.guard) =
  match g with
  | Term.Same_src (x, y) -> Gsrc (min x y, max x y)
  | Term.Same_dst (x, y) -> Gdst (min x y, max x y)
  | Term.Color_is (x, c) -> Gcolor (x, c)

let dedup_sorted l =
  let rec go = function
    | a :: b :: rest when compare a b = 0 -> go (b :: rest)
    | a :: rest -> a :: go rest
    | [] -> []
  in
  go l

(* ---- signature refinement ---------------------------------------- *)

(* One refinement round: each variable's new signature is its old id
   plus the sorted multiset of its incidences, with neighbours
   represented by their old ids. Ids are re-assigned by rank, so they
   depend only on the structure, never on the incoming numbering. *)
let refine ~nvars conjs guards prev =
  let desc = Array.make nvars [] in
  let add v d = if v >= 0 && v < nvars then desc.(v) <- d :: desc.(v) in
  List.iter
    (fun (bv, bp, av, ap) ->
      let self = if bv = av then 1 else 0 in
      add bv (0, bp, ap, prev.(av), self);
      add av (1, ap, bp, prev.(bv), self))
    conjs;
  List.iter
    (fun g ->
      match g with
      | Gsrc (x, y) ->
          add x (2, 0, 0, prev.(y), 0);
          add y (2, 0, 0, prev.(x), 0)
      | Gdst (x, y) ->
          add x (3, 0, 0, prev.(y), 0);
          add y (3, 0, 0, prev.(x), 0)
      | Gcolor (x, c) -> add x (4, c, 0, 0, 0))
    guards;
  let sigs =
    Array.mapi (fun v d -> (prev.(v), List.sort compare d)) desc
  in
  let distinct = dedup_sorted (List.sort compare (Array.to_list sigs)) in
  let rank s =
    let rec go i = function
      | [] -> assert false
      | d :: rest -> if compare d s = 0 then i else go (i + 1) rest
    in
    go 0 distinct
  in
  Array.map rank sigs

let signature_classes ~nvars conjs guards =
  let ids = ref (Array.make nvars 0) in
  (* n rounds always reach a fixpoint of the refinement *)
  for _ = 1 to max 1 nvars do
    ids := refine ~nvars conjs guards !ids
  done;
  let by_id = Hashtbl.create 8 in
  Array.iteri
    (fun v id ->
      Hashtbl.replace by_id id
        (v :: Option.value ~default:[] (Hashtbl.find_opt by_id id)))
    !ids;
  Hashtbl.fold (fun id vs acc -> (id, List.rev vs) :: acc) by_id []
  |> List.sort compare
  |> List.map snd

(* ---- exact minimization within classes --------------------------- *)

let rec insertions x = function
  | [] -> [ [ x ] ]
  | y :: ys ->
      (x :: y :: ys) :: List.map (fun zs -> y :: zs) (insertions x ys)

let rec permutations = function
  | [] -> [ [] ]
  | x :: xs -> List.concat_map (insertions x) (permutations xs)

let rec factorial n = if n <= 1 then 1 else n * factorial (n - 1)

(* all variable orders consistent with the class partition (classes stay
   in signature order; members permute within their class), or just the
   refinement order when there are too many. The budget fold saturates at
   [max_search + 1]: a class of more than 8 members blows the budget on
   its own (9! > 8! = max_search), and keeping the accumulator at most
   [max_search] before each multiplication keeps the product far from
   native-int overflow — a fully symmetric 21-variable predicate must
   fall back, not wrap negative and enumerate 21! orders. *)
let candidate_orders classes =
  let budget =
    List.fold_left
      (fun acc c ->
        let n = List.length c in
        if acc > max_search || n > 8 then max_search + 1
        else acc * factorial n)
      1 classes
  in
  if budget > max_search then [ List.concat classes ]
  else
    List.fold_left
      (fun acc cls ->
        let ps = permutations cls in
        List.concat_map (fun prefix -> List.map (fun p -> prefix @ p) ps) acc)
      [ [] ] classes

let key_under ~nvars order conjs guards =
  let pos = Array.make nvars 0 in
  List.iteri (fun i v -> pos.(v) <- i) order;
  let conjs' =
    List.sort compare
      (List.map
         (fun (bv, bp, av, ap) -> (pos.(bv), bp, pos.(av), ap))
         conjs)
  in
  let guards' =
    List.sort compare
      (List.map
         (fun g ->
           match g with
           | Gsrc (x, y) -> Gsrc (min pos.(x) pos.(y), max pos.(x) pos.(y))
           | Gdst (x, y) -> Gdst (min pos.(x) pos.(y), max pos.(x) pos.(y))
           | Gcolor (x, c) -> Gcolor (pos.(x), c))
         guards)
  in
  (conjs', guards')

let canonical_key t =
  let nvars = Forbidden.nvars t in
  let conjs = List.map conjunct_tuple (Forbidden.conjuncts t) in
  let guards = List.map guard_key (Forbidden.guards t) in
  if nvars = 0 then (0, ([], List.sort compare guards))
  else
    let classes = signature_classes ~nvars conjs guards in
    let best =
      List.fold_left
        (fun acc order ->
          let k = key_under ~nvars order conjs guards in
          match acc with
          | None -> Some k
          | Some k0 -> if compare k k0 < 0 then Some k else acc)
        None
        (candidate_orders classes)
    in
    (nvars, Option.get best)

let of_key (nvars, (conjs, guards)) =
  let conjuncts =
    List.map
      (fun (bv, bp, av, ap) ->
        Term.(
          { var = bv; point = point_of_code bp }
          @> { var = av; point = point_of_code ap }))
      conjs
  in
  let guards =
    List.map
      (fun g ->
        match g with
        | Gsrc (x, y) -> Term.Same_src (x, y)
        | Gdst (x, y) -> Term.Same_dst (x, y)
        | Gcolor (x, c) -> Term.Color_is (x, c))
      guards
  in
  Forbidden.make ~nvars ~guards conjuncts

let render_key (nvars, (conjs, guards)) =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (Printf.sprintf "n=%d|c=" nvars);
  List.iter
    (fun (bv, bp, av, ap) ->
      Buffer.add_string buf (Printf.sprintf "%d.%d<%d.%d;" bv bp av ap))
    conjs;
  Buffer.add_string buf "|g=";
  List.iter
    (fun g ->
      Buffer.add_string buf
        (match g with
        | Gsrc (x, y) -> Printf.sprintf "s%d=%d;" x y
        | Gdst (x, y) -> Printf.sprintf "d%d=%d;" x y
        | Gcolor (x, c) -> Printf.sprintf "k%d=%d;" x c))
    guards;
  Buffer.contents buf

let digest_of_key key = Digest.to_hex (Digest.string (render_key key))

let predicate t = of_key (canonical_key t)

let digest t = digest_of_key (canonical_key t)

let canonical t =
  let key = canonical_key t in
  (of_key key, digest_of_key key)

let equal a b = compare (canonical_key a) (canonical_key b) = 0

let spec (s : Spec.t) =
  let members =
    List.map
      (fun p ->
        let c, d = canonical p in
        (d, c))
      s.Spec.predicates
    |> List.sort (fun (d1, _) (d2, _) -> String.compare d1 d2)
  in
  let rec dedup = function
    | (d1, _) :: ((d2, _) :: _ as rest) when String.equal d1 d2 ->
        dedup rest
    | m :: rest -> m :: dedup rest
    | [] -> []
  in
  Spec.make ~name:s.Spec.name (List.map snd (dedup members))

let spec_digest s =
  let canonical = spec s in
  let digests = List.map digest canonical.Spec.predicates in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "spec:%d:%s" (List.length digests)
          (String.concat "," digests)))

let forbidden_pp ppf t =
  let sep ppf () = Format.fprintf ppf " & " in
  match (Forbidden.conjuncts t, Forbidden.guards t) with
  | [], [] -> Format.fprintf ppf "true"
  | conjs, guards ->
      Format.fprintf ppf "%a"
        (Format.pp_print_list ~pp_sep:sep (fun ppf item -> item ppf))
        (List.map (fun c ppf -> Term.pp_conjunct ppf c) conjs
        @ List.map (fun g ppf -> Term.pp_guard ppf g) guards)

let forbidden_to_string t = Format.asprintf "%a" forbidden_pp t
