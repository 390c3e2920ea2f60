type violation = { cycle : int list; reason : string }
type guard = Any | Same_src | Same_dst | Same_channel
type edges = Message_graph | One_queue

let is_async (_ : Run.Abstract.t) = true

(* Unknown attributes (-1 in the columns) satisfy no guard. *)
let guarded r guard x y =
  guard = Any
  ||
  let a = Run.Abstract.attr_table r in
  let s = a.Run.srcs.(x) and d = a.Run.dsts.(x) in
  (guard = Same_dst || (s >= 0 && s = a.Run.srcs.(y)))
  && (guard = Same_src || (d >= 0 && d = a.Run.dsts.(y)))

(* ------------------------------------------------------------------ *)
(* The membership kernels: packed rows up to 62 messages, Bitsets     *)
(* beyond                                                             *)
(* ------------------------------------------------------------------ *)

(* The overtaking candidates of x are ss.(x) ∩ rr_t.(x) ∖ {x} (packed
   sections 0 and 7): the y sent after x and delivered before it. *)
let rec packed_hit r guard x c =
  c <> 0
  && (guarded r guard x (Bitset.lowest_bit c)
     || packed_hit r guard x (c land (c - 1)))

let rec wide_hit r guard row x y =
  let y = Bitset.next row y in
  y < Bitset.capacity row
  && (guarded r guard x y || wide_hit r guard row x (y + 1))

let no_overtake guard r =
  let n = Run.Abstract.nmsgs r in
  match Run.Abstract.masks r with
  | Some mk ->
      let rec clean x =
        x >= n
        ||
        let c = mk.(x) land mk.((7 * n) + x) land lnot (1 lsl x) in
        (not (packed_hit r guard x c)) && clean (x + 1)
      in
      clean 0
  | None ->
      let rel = Run.Abstract.relations r and row = Bitset.create n in
      let rec clean x =
        if x >= n then true
        else begin
          Bitset.copy_into ~dst:row rel.Run.Abstract.ss.(x);
          Bitset.inter_into ~dst:row rel.Run.Abstract.rr_t.(x);
          Bitset.remove row x;
          (not (wide_hit r guard row x 0)) && clean (x + 1)
        end
      in
      clean 0

(* Source peeling over packed rows: the graph restricted to [rem] is
   acyclic iff its sources (messages none of whose predecessors remain)
   can be peeled off round by round until nothing is left. A message's
   predecessors are the union of its transposed rows (sections 4-7),
   self bit dropped — sr_t.(y) always holds y. Section [s] is sr_t (5)
   for the message graph; the one-queue graph reads ss_t (4) twice in
   its place, so one index drops the sr edges. *)
let rec peel mk n s rem =
  rem = 0
  ||
  let sources = ref 0 and rest = ref rem in
  while !rest <> 0 do
    let y = Bitset.lowest_bit !rest in
    let preds =
      mk.((4 * n) + y) lor mk.((s * n) + y) lor mk.((6 * n) + y)
      lor mk.((7 * n) + y)
    in
    if preds land rem land lnot (1 lsl y) = 0 then
      sources := !sources lor (1 lsl y);
    rest := !rest land (!rest - 1)
  done;
  !sources <> 0 && peel mk n s (rem lxor !sources)

(* [row] := the successors of [x] over [edges], self bit dropped. *)
let succ_into row rel edges x =
  Bitset.copy_into ~dst:row rel.Run.Abstract.ss.(x);
  if edges = Message_graph then
    Bitset.union_into ~dst:row rel.Run.Abstract.sr.(x);
  Bitset.union_into ~dst:row rel.Run.Abstract.rs.(x);
  Bitset.union_into ~dst:row rel.Run.Abstract.rr.(x);
  Bitset.remove row x

(* Beyond 62 messages the same peel one source at a time (Kahn): a
   round-by-round rescan would cost a full pass per chain link. *)
let acyclic_wide rel n edges =
  let row = Bitset.create n and indeg = Array.make n 0 in
  for x = 0 to n - 1 do
    succ_into row rel edges x;
    Bitset.iter (fun y -> indeg.(y) <- indeg.(y) + 1) row
  done;
  let release y ready =
    indeg.(y) <- indeg.(y) - 1;
    if indeg.(y) = 0 then y :: ready else ready
  in
  let rec drain peeled = function
    | [] -> peeled = n
    | x :: ready ->
        succ_into row rel edges x;
        drain (peeled + 1) (Bitset.fold release row ready)
  in
  drain 0 (List.filter (fun y -> indeg.(y) = 0) (List.init n Fun.id))

let acyclic edges r =
  let n = Run.Abstract.nmsgs r in
  match Run.Abstract.masks r with
  | Some mk ->
      peel mk n (if edges = Message_graph then 5 else 4) ((1 lsl n) - 1)
  | None -> acyclic_wide (Run.Abstract.relations r) n edges

(* Largest strongly connected component of the message graph, by
   Warshall closure over its rows: x and y share a component iff each
   reaches the other. *)
let max_scc r =
  let n = Run.Abstract.nmsgs r in
  if n <= 1 then n
  else
    match Run.Abstract.masks r with
    | Some mk ->
        let reach =
          Array.init n (fun x ->
              let row = mk.(x) lor mk.(n + x) lor mk.((2 * n) + x) in
              (row lor mk.((3 * n) + x)) land lnot (1 lsl x))
        in
        for k = 0 to n - 1 do
          for x = 0 to n - 1 do
            if reach.(x) land (1 lsl k) <> 0 then
              reach.(x) <- reach.(x) lor reach.(k)
          done
        done;
        let best = ref 1 in
        for x = 0 to n - 1 do
          let scc = ref 1 and c = ref (reach.(x) land lnot (1 lsl x)) in
          while !c <> 0 do
            if reach.(Bitset.lowest_bit !c) land (1 lsl x) <> 0 then incr scc;
            c := !c land (!c - 1)
          done;
          if !scc > !best then best := !scc
        done;
        !best
    | None ->
        let rel = Run.Abstract.relations r in
        let reach =
          Array.init n (fun x ->
              let row = Bitset.create n in
              succ_into row rel Message_graph x;
              row)
        in
        for k = 0 to n - 1 do
          for x = 0 to n - 1 do
            if Bitset.mem reach.(x) k then
              Bitset.union_into ~dst:reach.(x) reach.(k)
          done
        done;
        let scc x =
          Bitset.fold
            (fun y c -> if y <> x && Bitset.mem reach.(y) x then c + 1 else c)
            reach.(x) 1
        in
        List.fold_left (fun best x -> max best (scc x)) 1 (List.init n Fun.id)

let is_causal r = no_overtake Any r
let is_sync r = acyclic Message_graph r

(* ------------------------------------------------------------------ *)
(* Witness-producing references (lt only, no rows)                    *)
(* ------------------------------------------------------------------ *)

let scope = function
  | Any -> ""
  | Same_src -> " with the same sender"
  | Same_dst -> " with the same destination"
  | Same_channel -> " with the same channel"

let check_overtake guard r =
  let n = Run.Abstract.nmsgs r and lt = Run.Abstract.lt r in
  let rec scan x y =
    if x = n then Ok ()
    else if y = n then scan (x + 1) 0
    else if
      x <> y
      && lt (Event.send x) (Event.send y)
      && lt (Event.deliver y) (Event.deliver x)
      && guarded r guard x y
    then
      Error
        {
          cycle = [ x; y ];
          reason =
            Printf.sprintf "x%d.s > x%d.s but x%d.r > x%d.r%s: x%d overtaken"
              x y y x (scope guard) x;
        }
    else scan x (y + 1)
  in
  scan 0 0

let check_causal r = check_overtake Any r

(* [path] is a walk, reversed, that is about to step back to [y]: the
   cycle it closes is its prefix down to [y], re-reversed. *)
let rec cycle_to y acc = function
  | z :: path when z <> y -> cycle_to y (z :: acc) path
  | _ -> y :: acc

(* One cycle among the unnumbered messages, by depth-first search that
   tries successors in descending order. Each of them has an unnumbered
   predecessor, so a cycle exists; a message that merely hangs below
   one has no unnumbered successor, and the search backs out of it.
   [state]: 0 unseen, 1 on the current path, 2 left without a cycle. *)
let crown n edge numbering =
  let state = Array.make n 0 in
  let rec visit path x =
    state.(x) <- 1;
    let rec next y =
      if y < 0 then begin
        state.(x) <- 2;
        None
      end
      else if numbering.(y) >= 0 || state.(y) = 2 || not (edge x y) then
        next (y - 1)
      else if state.(y) = 1 then Some (cycle_to y [] (x :: path))
      else
        match visit (x :: path) y with None -> next (y - 1) | found -> found
    in
    next (n - 1)
  in
  let rec start x =
    if numbering.(x) >= 0 || state.(x) <> 0 then start (x + 1)
    else
      match visit [] x with Some cycle -> cycle | None -> start (x + 1)
  in
  start 0

let numbering_or_crown n edge =
  let indeg = Array.make n 0 in
  for x = 0 to n - 1 do
    for y = 0 to n - 1 do
      if edge x y then indeg.(y) <- indeg.(y) + 1
    done
  done;
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
    for y = n - 1 downto 0 do
      if edge x y then begin
        indeg.(y) <- indeg.(y) - 1;
        if indeg.(y) = 0 then Queue.add y queue
      end
    done
  done;
  if !next = n then Ok numbering else Error (crown n edge numbering)

let check_acyclic edges r =
  let n = Run.Abstract.nmsgs r and lt = Run.Abstract.lt r in
  let s = Event.send and d = Event.deliver in
  let edge x y =
    x <> y
    && (lt (s x) (s y)
       || (edges = Message_graph && lt (s x) (d y))
       || lt (d x) (s y)
       || lt (d x) (d y))
  in
  (* Kahn asks each pair twice: ask the order once *)
  let adj = Array.init n (fun x -> Array.init n (edge x)) in
  match numbering_or_crown n (fun x y -> adj.(x).(y)) with
  | Ok numbering -> Ok numbering
  | Error cycle ->
      let what =
        match edges with
        | Message_graph -> "message graph has a cycle (crown)"
        | One_queue -> "one-queue FIFO graph has a cycle"
      in
      Error
        {
          cycle;
          reason = Printf.sprintf "%s of length %d" what (List.length cycle);
        }

let check_sync r = check_acyclic Message_graph r

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
