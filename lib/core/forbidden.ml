type t = {
  nvars : int;
  conjuncts : Term.conjunct list;
  guards : Term.guard list;
}

let check_var nvars v what =
  if v < 0 || v >= nvars then
    invalid_arg
      (Printf.sprintf "Forbidden.make: %s mentions x%d, arity is %d" what v
         nvars)

(* Keep the first of each class of equal items, in order, in linear
   time: an item is kept when its [key] grows the table, so [key] must
   be equal exactly for equal items. *)
let dedup key l =
  let seen = Hashtbl.create (List.length l) in
  List.filter
    (fun x ->
      let n = Hashtbl.length seen in
      Hashtbl.replace seen (key x) ();
      Hashtbl.length seen > n)
    l

(* [Term.guard_equal] ignores the order of a same-attribute pair *)
let guard_key (g : Term.guard) =
  match g with
  | Term.Same_src (x, y) when x > y -> Term.Same_src (y, x)
  | Term.Same_dst (x, y) when x > y -> Term.Same_dst (y, x)
  | g -> g

let make ~nvars ?(guards = []) conjuncts =
  if nvars < 0 then invalid_arg "Forbidden.make: negative arity";
  List.iter
    (fun (c : Term.conjunct) ->
      check_var nvars c.before.var "conjunct";
      check_var nvars c.after.var "conjunct")
    conjuncts;
  List.iter
    (fun (g : Term.guard) ->
      match g with
      | Term.Same_src (x, y) | Term.Same_dst (x, y) ->
          check_var nvars x "guard";
          check_var nvars y "guard"
      | Term.Color_is (x, _) -> check_var nvars x "guard")
    guards;
  {
    nvars;
    conjuncts = dedup Fun.id conjuncts;
    guards = dedup guard_key guards;
  }

let nvars t = t.nvars

let conjuncts t = t.conjuncts

let guards t = t.guards

let is_guarded t = t.guards <> []

type simplified = Simplified of t | Unsatisfiable

let simplify t =
  let unsat = ref false in
  let keep =
    List.filter
      (fun (c : Term.conjunct) ->
        if c.before.var <> c.after.var then true
        else
          match (c.before.point, c.after.point) with
          | Mo_order.Event.S, Mo_order.Event.R ->
              false (* tautology: drop *)
          | Mo_order.Event.R, Mo_order.Event.S
          | Mo_order.Event.S, Mo_order.Event.S
          | Mo_order.Event.R, Mo_order.Event.R ->
              unsat := true;
              true)
      t.conjuncts
  in
  if !unsat then Unsatisfiable else Simplified { t with conjuncts = keep }

let rename t ~keep =
  let index = Hashtbl.create 8 in
  List.iteri (fun i v -> Hashtbl.replace index v i) keep;
  let lookup v = Hashtbl.find_opt index v in
  let conjuncts =
    List.filter_map
      (fun (c : Term.conjunct) ->
        match (lookup c.before.var, lookup c.after.var) with
        | Some b, Some a ->
            Some
              Term.(
                { var = b; point = c.before.point }
                @> { var = a; point = c.after.point })
        | _ -> None)
      t.conjuncts
  in
  let guards =
    List.filter_map
      (fun (g : Term.guard) ->
        match g with
        | Term.Same_src (x, y) -> (
            match (lookup x, lookup y) with
            | Some x', Some y' -> Some (Term.Same_src (x', y'))
            | _ -> None)
        | Term.Same_dst (x, y) -> (
            match (lookup x, lookup y) with
            | Some x', Some y' -> Some (Term.Same_dst (x', y'))
            | _ -> None)
        | Term.Color_is (x, c) -> (
            match lookup x with
            | Some x' -> Some (Term.Color_is (x', c))
            | None -> None))
      t.guards
  in
  make ~nvars:(List.length keep) ~guards conjuncts

let equal a b =
  a.nvars = b.nvars
  && List.length a.conjuncts = List.length b.conjuncts
  && List.for_all
       (fun c -> List.exists (Term.conjunct_equal c) b.conjuncts)
       a.conjuncts
  && List.length a.guards = List.length b.guards
  && List.for_all (fun g -> List.exists (Term.guard_equal g) b.guards)
       a.guards

(* The concrete syntax, written straight into one buffer, digits
   included: conjuncts [x<i>.<p> < x<j>.<q>], then guards, joined by
   [" & "]. *)

(* decimal digits of [x <= 0], most significant first; working on the
   negative side covers [min_int] *)
let rec add_nonpos buf x =
  if x <= -10 then add_nonpos buf (x / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (x mod 10)))

let add_int buf x =
  if x < 0 then begin
    Buffer.add_char buf '-';
    add_nonpos buf x
  end
  else add_nonpos buf (-x)

let add_var buf v =
  Buffer.add_char buf 'x';
  add_int buf v

let add_endpoint buf (e : Term.endpoint) =
  add_var buf e.var;
  Buffer.add_string buf
    (match e.point with Mo_order.Event.S -> ".s" | R -> ".r")

let add_conjunct buf (c : Term.conjunct) =
  add_endpoint buf c.before;
  Buffer.add_string buf " < ";
  add_endpoint buf c.after

let add_same buf f x y =
  Buffer.add_string buf f;
  add_var buf x;
  Buffer.add_string buf ") = ";
  Buffer.add_string buf f;
  add_var buf y;
  Buffer.add_char buf ')'

let add_guard buf (g : Term.guard) =
  match g with
  | Term.Same_src (x, y) -> add_same buf "src(" x y
  | Term.Same_dst (x, y) -> add_same buf "dst(" x y
  | Term.Color_is (x, c) ->
      Buffer.add_string buf "color(";
      add_var buf x;
      Buffer.add_string buf ") = ";
      add_int buf c

let to_string t =
  match (t.conjuncts, t.guards) with
  | [], [] -> "true"
  | conjuncts, guards ->
      let buf =
        Buffer.create
          ((16 * List.length conjuncts) + (24 * List.length guards))
      in
      List.iteri
        (fun i c ->
          if i > 0 then Buffer.add_string buf " & ";
          add_conjunct buf c)
        conjuncts;
      List.iteri
        (fun i g ->
          if i > 0 || conjuncts <> [] then Buffer.add_string buf " & ";
          add_guard buf g)
        guards;
      Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)
