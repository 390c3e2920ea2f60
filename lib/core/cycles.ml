type cycle = Pgraph.edge list

let vertices (c : cycle) = List.map (fun (e : Pgraph.edge) -> e.src) c

(* Enumerate simple cycles by DFS from each root vertex in increasing
   order, restricting paths to vertices >= root; a cycle is emitted when an
   edge returns to the root. This canonicalizes each cycle to the rotation
   starting at its smallest vertex (the classic Johnson-style trick; no
   blocking sets needed at predicate-graph sizes). *)
let enumerate ?(max_cycles = 100_000) g =
  let n = Pgraph.nvertices g in
  let results = ref [] in
  let count = ref 0 in
  let on_path = Array.make (max n 1) false in
  (try
     for root = 0 to n - 1 do
       let rec extend v path =
         List.iter
           (fun (e : Pgraph.edge) ->
             if !count >= max_cycles then raise Exit;
             if e.dst = root then begin
               incr count;
               results := List.rev (e :: path) :: !results
             end
             else if e.dst > root && not on_path.(e.dst) then begin
               on_path.(e.dst) <- true;
               extend e.dst (e :: path);
               on_path.(e.dst) <- false
             end)
           (Pgraph.out_edges g v)
       in
       on_path.(root) <- true;
       extend root [];
       on_path.(root) <- false
     done
   with Exit -> ());
  List.rev !results

(* white/grey/black DFS over [n] nodes; [succ v f] calls [f] on each
   successor of [v] *)
let cyclic n succ =
  let color = Array.make (max n 1) 0 in
  let exception Found in
  let rec visit v =
    color.(v) <- 1;
    succ v (fun w ->
        if color.(w) = 1 then raise Found
        else if color.(w) = 0 then visit w);
    color.(v) <- 2
  in
  try
    for v = 0 to n - 1 do
      if color.(v) = 0 then visit v
    done;
    false
  with Found -> true

let has_cycle g =
  cyclic (Pgraph.nvertices g) (fun v f ->
      List.iter (fun (e : Pgraph.edge) -> f e.dst) (Pgraph.out_edges g v))

let is_r : Mo_order.Event.point -> bool = function R -> true | S -> false

(* Tarjan's strongly connected components: [comp.(v)] names [v]'s *)
let components g =
  let n = Pgraph.nvertices g in
  let index = Array.make (max n 1) (-1) in
  let low = Array.make (max n 1) 0 in
  let comp = Array.make (max n 1) (-1) in
  let on_stack = Array.make (max n 1) false in
  let stack = ref [] and next = ref 0 in
  let rec visit v =
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun (e : Pgraph.edge) ->
        let w = e.dst in
        if index.(w) < 0 then begin
          visit w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      (Pgraph.out_edges g v);
    if low.(v) = index.(v) then begin
      let rec pop () =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            comp.(w) <- v;
            if w <> v then pop ()
        | [] -> ()
      in
      pop ()
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then visit v
  done;
  comp

(* ---- the verdict on the event graph ------------------------------ *)

(* Node [2x] is [x.s], node [2x+1] is [x.r]; one edge per conjunct, from
   its [before] endpoint to its [after] endpoint. The message edges
   [x.s -> x.r] are implicit. *)
let event_succ g =
  let n = Pgraph.nvertices g in
  let node v p = (2 * v) + Bool.to_int (is_r p) in
  let succ = Array.make (max (2 * n) 1) [] in
  List.iter
    (fun (e : Pgraph.edge) ->
      let a = node e.src e.src_point in
      succ.(a) <- node e.dst e.dst_point :: succ.(a))
    (Pgraph.edges g);
  succ

let least_order_capped g =
  if not (has_cycle g) then None
  else
    let n = Pgraph.nvertices g in
    let succ = event_succ g in
    (* a cycle turns backwards from [x.r] to [x.s] exactly at its
       β-vertices, and passing through [y.s -> y.r] adds none: an order-0
       cycle is a cycle of the event graph *)
    if
      cyclic (2 * n) (fun u f ->
          List.iter f succ.(u);
          if u land 1 = 0 then f (u + 1))
    then Some 0
    else
      (* an order-1 cycle with β-vertex [x] is a path from [x.s] back to
         [x.r] that does not use [x]'s own message edge: it leaves [x.s]
         by a conjunct, and cannot come back to [x.s] in an acyclic
         event graph *)
      let comp = components g in
      let seen = Array.make (2 * n) (-1) in
      (* the cycle stays inside [x]'s component *)
      let reaches x =
        let target = (2 * x) + 1 in
        let rec go u =
          u = target
          || seen.(u) <> x
             && comp.(u / 2) = comp.(x)
             && begin
               seen.(u) <- x;
               List.exists go succ.(u)
               || (u land 1 = 0 && go (u + 1))
             end
        in
        List.exists go succ.(2 * x)
      in
      let rec any x = x < n && (reaches x || any (x + 1)) in
      Some (if any 0 then 1 else 2)

(* ---- exact cycle orders without listing cycles -------------------- *)

(* a memo state costs [state_cost] steps (its table insertion dominates)
   plus one per out-edge it examines *)
let state_cost = 32

let step_budget = 4_000_000

let max_component = 54

type orders = { orders : int list; best : cycle option; truncated : bool }

(* An open-addressing table from non-negative int keys to non-negative
   int values, [-1] meaning absent, with no per-entry allocation. [used]
   lists the filled slots, so [clear] costs the entries, not the
   capacity, and a table is reused across roots and calls instead of
   growing a fresh one (large arrays live in the major heap) each time. *)
module Memo = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable used : int array;  (** [used.(0 .. size-1)]: filled slots *)
    mutable size : int;
    mutable shift : int;  (** 63 - log2 (capacity) *)
  }

  let create () =
    {
      keys = Array.make 64 (-1);
      vals = Array.make 64 0;
      used = Array.make 32 0;
      size = 0;
      shift = 57;
    }

  let clear t =
    for j = 0 to t.size - 1 do
      t.keys.(t.used.(j)) <- -1
    done;
    t.size <- 0

  (* Fibonacci hashing: the top bits of the product depend on every key
     bit; linear probing in a table at most half full always ends *)
  let rec slot keys k i =
    let k' = keys.(i) in
    if k' = k || k' < 0 then i
    else slot keys k ((i + 1) land (Array.length keys - 1))

  let find t k =
    let i = slot t.keys k ((k * 0x2545F4914F6CDD1D) lsr t.shift) in
    if t.keys.(i) = k then t.vals.(i) else -1

  let rec add t k v =
    if 2 * (t.size + 1) > Array.length t.keys then begin
      let keys = t.keys and vals = t.vals and used = t.used
      and size = t.size in
      t.keys <- Array.make (2 * Array.length keys) (-1);
      t.vals <- Array.make (2 * Array.length keys) 0;
      t.used <- Array.make (Array.length keys) 0;
      t.size <- 0;
      t.shift <- t.shift - 1;
      for j = 0 to size - 1 do
        add t keys.(used.(j)) vals.(used.(j))
      done
    end;
    let i = slot t.keys k ((k * 0x2545F4914F6CDD1D) lsr t.shift) in
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.used.(t.size) <- i;
    t.size <- t.size + 1

  (* a table kept between calls holds at most [max_kept] slots, so a
     domain does not hold on to the largest table it ever grew *)
  let max_kept = 1 lsl 14

  let shrink t =
    if Array.length t.keys > max_kept then begin
      let fresh = create () in
      t.keys <- fresh.keys;
      t.vals <- fresh.vals;
      t.used <- fresh.used;
      t.size <- 0;
      t.shift <- fresh.shift
    end

  (* two tables per domain: the current root's and the best root's *)
  let tables = Domain.DLS.new_key (fun () -> (create (), create ()))
end

(* The enumerator's cycles through [root] use only vertices above it, all
   in [root]'s component. [f] below is a function of (vertex, visited
   set, whether the vertex was entered at [.r], whether the cycle left
   the root at [.s]): the int whose bit [k] says that some simple path
   from there back to the root adds [k] more β-vertices, the vertex's own
   and the root's included. The four arguments determine the value, so
   one memo per root makes it exact; [orders] is the union over roots. *)
let orders g =
  let n = Pgraph.nvertices g in
  let comp = components g in
  (* out-edges as [dst lsl 2 lor (dst at .r) lsl 1 lor (src at .s)] *)
  let succ =
    Array.init n (fun v ->
        Array.of_list
          (List.map
             (fun (e : Pgraph.edge) ->
               (e.dst lsl 2)
               lor (Bool.to_int (is_r e.dst_point) lsl 1)
               lor Bool.to_int (not (is_r e.src_point)))
             (Pgraph.out_edges g v)))
  in
  (* each component's vertices, ascending *)
  let members = Array.make (max n 1) [] in
  for v = n - 1 downto 0 do
    members.(comp.(v)) <- v :: members.(comp.(v))
  done;
  (* [local] numbers the vertices above [root] in its component and is
     [-1] everywhere else *)
  let local = Array.make (max n 1) (-1) in
  let number root =
    let k = ref 0 in
    List.iter
      (fun v ->
        if v > root then begin
          local.(v) <- !k;
          incr k
        end
        else local.(v) <- -1)
      members.(comp.(root));
    !k
  in
  let unnumber root =
    List.iter (fun v -> local.(v) <- -1) members.(comp.(root))
  in
  let key v mask in_r out_s =
    (((mask lsl 6) lor local.(v)) lsl 2)
    lor (Bool.to_int in_r lsl 1)
    lor Bool.to_int out_s
  in
  let steps = ref 0 in
  let found = ref 0 in
  (* the first root whose cycles reach a new least order, with its memo *)
  let best_root = ref None in
  let cur = ref (fst (Domain.DLS.get Memo.tables))
  and spare = ref (snd (Domain.DLS.get Memo.tables)) in
  let truncated =
    try
      for root = 0 to n - 1 do
        if number root > max_component then raise Exit;
        let memo = !cur in
        Memo.clear memo;
        let rec f v mask in_r out_s =
          let k = key v mask in_r out_s in
          let x = Memo.find memo k in
          if x >= 0 then x
          else begin
            let es = succ.(v) in
            steps := !steps + state_cost + Array.length es;
            if !steps > step_budget then raise Exit;
            let acc = ref 0 in
            for i = 0 to Array.length es - 1 do
              let e = es.(i) in
              let dst = e lsr 2 in
              let b = Bool.to_int (in_r && e land 1 = 1) in
              if dst = root then
                let b_root = Bool.to_int (out_s && e land 2 <> 0) in
                acc := !acc lor (1 lsl (b + b_root))
              else
                let l = local.(dst) in
                if l >= 0 && mask land (1 lsl l) = 0 then
                  let mask' = mask lor (1 lsl l) in
                  acc := !acc lor (f dst mask' (e land 2 <> 0) out_s lsl b)
            done;
            Memo.add memo k !acc;
            !acc
          end
        in
        let here = ref 0 in
        Array.iter
          (fun e ->
            let dst = e lsr 2 and out_s = e land 1 = 1 in
            (if dst = root then
               here := !here lor (1 lsl Bool.to_int (out_s && e land 2 <> 0))
             else
               let l = local.(dst) in
               if l >= 0 then
                 here := !here lor f dst (1 lsl l) (e land 2 <> 0) out_s);
            found := !found lor !here)
          succ.(root);
        (if !here <> 0 then
           let m = Mo_order.Bitset.lowest_bit !here in
           match !best_root with
           | Some (_, m0, _) when m0 <= m -> ()
           | _ ->
               best_root := Some (root, m, memo);
               (* the best root keeps its table; the next root takes
                  the other one *)
               cur := !spare;
               spare := memo);
        unnumber root
      done;
      false
    with Exit -> true
  in
  let orders =
    List.filter (fun k -> !found land (1 lsl k) <> 0) (List.init 62 Fun.id)
  in
  let best =
    match !best_root with
    | Some (root, m, memo) when not truncated ->
        (* replay the enumerator's DFS, taking the first edge whose
           memoized order set still holds the order left to spend: the
           first order-[m] cycle it would list *)
        ignore (number root);
        let has v mask in_r out_s need =
          need >= 0
          && Memo.find memo (key v mask in_r out_s) land (1 lsl need) <> 0
        in
        (* [out_s] is [None] at the root, where each edge sets it *)
        let rec walk v mask in_r out_s need path =
          let rec first = function
            | [] -> assert false
            | (e : Pgraph.edge) :: rest ->
                let out_s =
                  Option.value out_s ~default:(not (is_r e.src_point))
                in
                let b = Bool.to_int (in_r && not (is_r e.src_point)) in
                let in_r' = is_r e.dst_point in
                if e.dst = root then
                  if b + Bool.to_int (out_s && in_r') = need then
                    List.rev (e :: path)
                  else first rest
                else
                  let l = local.(e.dst) in
                  let mask' = mask lor (1 lsl l) in
                  if
                    l >= 0
                    && mask land (1 lsl l) = 0
                    && has e.dst mask' in_r' out_s (need - b)
                  then
                    walk e.dst mask' in_r' (Some out_s) (need - b) (e :: path)
                  else first rest
          in
          first (Pgraph.out_edges g v)
        in
        Some (walk root 0 false None m [])
    | _ -> None
  in
  Memo.shrink !cur;
  Memo.shrink !spare;
  { orders; best; truncated }

let pp_cycle ppf (c : cycle) =
  Format.fprintf ppf "@[<h>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ; ")
       (fun ppf e -> Term.pp_conjunct ppf (Pgraph.edge_conjunct e)))
    c
