type violation = { cycle : int list; reason : string }

let is_async (_ : Run.Abstract.t) = true

let check_causal r =
  let n = Run.Abstract.nmsgs r in
  let found = ref None in
  (try
     for x = 0 to n - 1 do
       for y = 0 to n - 1 do
         if
           x <> y
           && Run.Abstract.lt r (Event.send x) (Event.send y)
           && Run.Abstract.lt r (Event.deliver y) (Event.deliver x)
         then begin
           found :=
             Some
               {
                 cycle = [ x; y ];
                 reason =
                   Printf.sprintf
                     "x%d.s > x%d.s but x%d.r > x%d.r: x%d overtaken" x y y x
                     x;
               };
           raise Exit
         end
       done
     done
   with Exit -> ());
  match !found with None -> Ok () | Some v -> Error v

(* Fast membership test over the relation matrices: a causal violation is
   some x with ss.(x) ∩ rr_t.(x) ∖ {x} ≠ ∅, i.e. a y overtaken by x.
   [check_causal] above stays as the reporting (and differential-reference)
   path. *)
let is_causal r =
  let n = Run.Abstract.nmsgs r in
  if n <= 1 then true
  else
    match Run.Abstract.masks r with
    | Some mk ->
        (* packed rows: ss is section 0, rr_t section 7 *)
        let ok = ref true in
        (try
           for x = 0 to n - 1 do
             if mk.(x) land mk.((7 * n) + x) land lnot (1 lsl x) <> 0 then begin
               ok := false;
               raise Exit
             end
           done
         with Exit -> ());
        !ok
    | None ->
        let rel = Run.Abstract.relations r in
        let scratch = Bitset.create n in
        let ok = ref true in
        (try
           for x = 0 to n - 1 do
             Bitset.copy_into ~dst:scratch rel.Run.Abstract.ss.(x);
             Bitset.inter_into ~dst:scratch rel.Run.Abstract.rr_t.(x);
             Bitset.remove scratch x;
             if not (Bitset.is_empty scratch) then begin
               ok := false;
               raise Exit
             end
           done
         with Exit -> ());
        !ok

(* SYNC membership: build the message graph and attempt a topological
   numbering. A cycle in the message graph is a crown; we report it. *)
let check_sync r =
  let n = Run.Abstract.nmsgs r in
  let succ = Array.make n [] in
  List.iter
    (fun (x, y) -> succ.(x) <- y :: succ.(x))
    (Run.Abstract.message_graph r);
  let indeg = Array.make n 0 in
  Array.iter (List.iter (fun y -> indeg.(y) <- indeg.(y) + 1)) succ;
  let queue = Queue.create () in
  for x = 0 to n - 1 do
    if indeg.(x) = 0 then Queue.add x queue
  done;
  let numbering = Array.make n (-1) in
  let next = ref 0 in
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    numbering.(x) <- !next;
    incr next;
    List.iter
      (fun y ->
        indeg.(y) <- indeg.(y) - 1;
        if indeg.(y) = 0 then Queue.add y queue)
      succ.(x)
  done;
  if !next = n then Ok numbering
  else begin
    (* extract one cycle among the unnumbered messages *)
    let in_cycle x = numbering.(x) < 0 in
    let start =
      let rec find x = if in_cycle x then x else find (x + 1) in
      find 0
    in
    let visited = Array.make n (-1) in
    let rec walk x step path =
      if visited.(x) >= 0 then
        (* [path] holds the walk in reverse; the cycle is the suffix of the
           walk from the first visit of [x], i.e. the prefix of [path] up
           to and including [x], re-reversed *)
        let rec take acc = function
          | [] -> acc
          | y :: rest -> if y = x then y :: acc else take (y :: acc) rest
        in
        take [] path
      else begin
        visited.(x) <- step;
        let next_in_cycle = List.find_opt in_cycle succ.(x) in
        match next_in_cycle with
        | Some y -> walk y (step + 1) (x :: path)
        | None -> List.rev (x :: path)
      end
    in
    let cycle = walk start 0 [] in
    Error
      {
        cycle;
        reason =
          Printf.sprintf "message graph has a cycle (crown) of length %d"
            (List.length cycle);
      }
  end

(* Source peeling over packed rows: the message graph restricted to
   [rem] is acyclic iff its sources (messages none of whose predecessors
   remain) can be peeled off round by round until nothing is left. A
   message's predecessors are the union of its four transposed rows
   (sections 4-7), self bit dropped — sr_t.(y) always holds y. *)
let rec peel mk n rem =
  rem = 0
  ||
  let sources = ref 0 and rest = ref rem in
  while !rest <> 0 do
    let y = Bitset.lowest_bit !rest in
    let preds =
      mk.((4 * n) + y) lor mk.((5 * n) + y) lor mk.((6 * n) + y)
      lor mk.((7 * n) + y)
    in
    if preds land rem land lnot (1 lsl y) = 0 then
      sources := !sources lor (1 lsl y);
    rest := !rest land (!rest - 1)
  done;
  !sources <> 0 && peel mk n (rem lxor !sources)

(* Fast SYNC membership: source peeling on the packed rows, Kahn over
   assembled Bitset rows (the four forward relations, self-loops dropped)
   beyond 62 messages. [check_sync] stays as the witness-producing
   reference. *)
let is_sync r =
  let n = Run.Abstract.nmsgs r in
  if n <= 1 then true
  else
    match Run.Abstract.masks r with
    | Some mk -> peel mk n ((1 lsl n) - 1)
    | None ->
        let rel = Run.Abstract.relations r in
        let succ =
          Array.init n (fun x ->
              let row = Bitset.copy rel.Run.Abstract.ss.(x) in
              Bitset.union_into ~dst:row rel.Run.Abstract.sr.(x);
              Bitset.union_into ~dst:row rel.Run.Abstract.rs.(x);
              Bitset.union_into ~dst:row rel.Run.Abstract.rr.(x);
              Bitset.remove row x;
              row)
        in
        let indeg = Array.make n 0 in
        Array.iter
          (fun row -> Bitset.iter (fun y -> indeg.(y) <- indeg.(y) + 1) row)
          succ;
        let queue = Queue.create () in
        for x = 0 to n - 1 do
          if indeg.(x) = 0 then Queue.add x queue
        done;
        let numbered = ref 0 in
        while not (Queue.is_empty queue) do
          let x = Queue.pop queue in
          incr numbered;
          Bitset.iter
            (fun y ->
              indeg.(y) <- indeg.(y) - 1;
              if indeg.(y) = 0 then Queue.add y queue)
            succ.(x)
        done;
        !numbered = n

type cls = Sync | Causal_only | Async_only

let classify r =
  if is_sync r then Sync else if is_causal r then Causal_only else Async_only

let cls_to_string = function
  | Sync -> "X_sync"
  | Causal_only -> "X_co - X_sync"
  | Async_only -> "X_async - X_co"

let pp_violation ppf v =
  Format.fprintf ppf "%s (messages %a)" v.reason
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    v.cycle
