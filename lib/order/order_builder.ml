(* Incremental strict partial orders with an undo log.

   The enumeration kernel pushes one edge per chosen event and pops it on
   backtrack, so reachability rows are kept as unboxed int masks (the
   universe of a run with m messages has 2m ≤ 62 vertices), each vertex
   with its successor row and its predecessor row, and every row
   mutation is logged as a (row, previous mask) pair. Undo restores the log
   suffix in reverse, which is correct even when one row is touched by
   several pushes: the oldest logged value for the mark's suffix wins. *)

type mark = { m_log : int; m_edges : (int * int) list }

type t = {
  n : int;
  rows : int array;
      (* rows.(h) has bit g set iff h ▷ g, strict; rows.(n + g), g's
         predecessor row, has bit h set iff h ▷ g *)
  mutable edges : (int * int) list; (* generating edges, newest first *)
  mutable log_rows : int array;
  mutable log_vals : int array;
  mutable log_len : int;
}

let max_size = 62

let create n =
  if n < 0 then invalid_arg "Order_builder.create: negative size";
  if n > max_size then
    invalid_arg
      (Printf.sprintf "Order_builder.create: size %d exceeds %d" n max_size);
  {
    n;
    rows = Array.make (2 * n) 0;
    edges = [];
    log_rows = Array.make 16 0;
    log_vals = Array.make 16 0;
    log_len = 0;
  }

let size t = t.n

let check t v =
  if v < 0 || v >= t.n then
    invalid_arg (Printf.sprintf "Order_builder: vertex %d out of [0,%d)" v t.n)

let lt t h g =
  check t h;
  check t g;
  t.rows.(h) land (1 lsl g) <> 0

let mark t = { m_log = t.log_len; m_edges = t.edges }

let log_row t row =
  if t.log_len = Array.length t.log_rows then begin
    let cap = 2 * t.log_len in
    let rows = Array.make cap 0 and vals = Array.make cap 0 in
    Array.blit t.log_rows 0 rows 0 t.log_len;
    Array.blit t.log_vals 0 vals 0 t.log_len;
    t.log_rows <- rows;
    t.log_vals <- vals
  end;
  t.log_rows.(t.log_len) <- row;
  t.log_vals.(t.log_len) <- t.rows.(row);
  t.log_len <- t.log_len + 1

(* row [base + w] gains [bits], for every member [w] of [set] *)
let rec widen t base set bits =
  if set <> 0 then begin
    let w = base + Bitset.lowest_bit set in
    let old = t.rows.(w) in
    if old lor bits <> old then begin
      log_row t w;
      t.rows.(w) <- old lor bits
    end;
    widen t base (set land (set - 1)) bits
  end

let add_edge t h g =
  check t h;
  check t g;
  if h = g || t.rows.(g) land (1 lsl h) <> 0 then `Cycle
  else if t.rows.(h) land (1 lsl g) <> 0 then
    (* already implied: nothing to close over, nothing to undo *)
    `Ok
  else begin
    (* h and every vertex below it now reach g and everything above g,
       and g's side gains h's side as predecessors *)
    let above = (1 lsl g) lor t.rows.(g)
    and below = (1 lsl h) lor t.rows.(t.n + h) in
    widen t 0 below above;
    widen t t.n above below;
    t.edges <- (h, g) :: t.edges;
    `Ok
  end

let add_edge_exn t h g =
  match add_edge t h g with
  | `Ok -> ()
  | `Cycle -> invalid_arg "Order_builder.add_edge_exn: cycle"

let undo t m =
  if m.m_log > t.log_len then
    invalid_arg "Order_builder.undo: stale mark";
  for i = t.log_len - 1 downto m.m_log do
    t.rows.(t.log_rows.(i)) <- t.log_vals.(i)
  done;
  t.log_len <- m.m_log;
  t.edges <- m.m_edges

let snapshot ?relabel t =
  let label = match relabel with Some l -> l | None -> Array.init t.n Fun.id in
  if Array.length label <> t.n then
    invalid_arg "Order_builder.snapshot: relabel length mismatch";
  let succ = Array.make t.n [] in
  List.iter
    (fun (h, g) -> succ.(label.(h)) <- label.(g) :: succ.(label.(h)))
    t.edges;
  let reach = Array.init t.n (fun _ -> Bitset.create t.n) in
  for h = 0 to t.n - 1 do
    let bits = t.rows.(h) in
    for g = 0 to t.n - 1 do
      if bits land (1 lsl g) <> 0 then Bitset.add reach.(label.(h)) label.(g)
    done
  done;
  Poset.of_closure_unchecked ~n:t.n ~succ ~reach

let reach_mask t h =
  check t h;
  t.rows.(h)

let pred_mask t g =
  check t g;
  t.rows.(t.n + g)
