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

let dedup equal l =
  List.fold_left
    (fun acc x -> if List.exists (equal x) acc then acc else x :: acc)
    [] l
  |> List.rev

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
    conjuncts = dedup Term.conjunct_equal conjuncts;
    guards = dedup Term.guard_equal guards;
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

(* The concrete syntax, written straight into one buffer: conjuncts
   [x<i>.<p> < x<j>.<q>], then guards, joined by [" & "]. *)
let to_string t =
  match (t.conjuncts, t.guards) with
  | [], [] -> "true"
  | conjuncts, guards ->
      let buf = Buffer.create 64 in
      let var v =
        Buffer.add_char buf 'x';
        Buffer.add_string buf (string_of_int v)
      in
      let endpoint (e : Term.endpoint) =
        var e.var;
        Buffer.add_string buf
          (match e.point with Mo_order.Event.S -> ".s" | R -> ".r")
      in
      let sep = ref false in
      let item () =
        if !sep then Buffer.add_string buf " & " else sep := true
      in
      List.iter
        (fun (c : Term.conjunct) ->
          item ();
          endpoint c.before;
          Buffer.add_string buf " < ";
          endpoint c.after)
        conjuncts;
      let same f x y =
        Buffer.add_string buf f;
        var x;
        Buffer.add_string buf ") = ";
        Buffer.add_string buf f;
        var y;
        Buffer.add_char buf ')'
      in
      List.iter
        (fun (g : Term.guard) ->
          item ();
          match g with
          | Term.Same_src (x, y) -> same "src(" x y
          | Term.Same_dst (x, y) -> same "dst(" x y
          | Term.Color_is (x, c) ->
              Buffer.add_string buf "color(";
              var x;
              Buffer.add_string buf ") = ";
              Buffer.add_string buf (string_of_int c))
        guards;
      Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)
