(* Streaming must-happened-before frontier over a bounded slot window.

   Two representations of the same automaton. [Packed] (windows up to
   62 slots) keeps the eight relation sections as rows packed into
   ints, exactly the Run.Abstract.masks layout: section k, row x lives
   at masks.(k * window + x); bit y of a forward row means x.p ▷ y.q,
   transpose rows mirror column reads. [Wide] replays the identical
   update rules over Bitset rows, one Bitset per row, so windows beyond
   the word size (e.g. --window 128) work at a constant factor's cost.
   Every update keeps forward and transpose sections in lock step.

   Per process p the monitor keeps past_s.(p) / past_r.(p): the slots
   whose send (resp. delivery) is in the causal past of p's latest
   event. Per slot j, sp_s.(j) / sp_r.(j) freeze those masks at j's
   send, so j's delivery can reconstruct the send's past without
   history. pend_to.(p) tracks slots pending delivery at p: whenever
   p's past grows, the new events gain must-edges into those virtual
   deliveries. *)

let max_window = 62
let max_wide_window = 4096

(* section offsets, as Run.Abstract: ss sr rs rr then transposes *)
let ss = 0
and sr = 1
and rs = 2
and rr = 3
and ss_t = 4
and sr_t = 5
and rs_t = 6
and rr_t = 7

(* or [v] into row [base + k] of [m] for every set bit [k] of [bits]:
   one step per member, lowest first, and no closure *)
let or_rows m base bits v =
  let b = ref bits in
  while !b <> 0 do
    let i = base + Bitset.lowest_bit !b in
    m.(i) <- m.(i) lor v;
    b := !b land (!b - 1)
  done

(* delivered slots awaiting retirement, oldest delivery first. A slot is
   queued at most once per occupancy, so [window] ints always suffice. *)
module Ring = struct
  type t = { buf : int array; mutable head : int; mutable len : int }

  let create n = { buf = Array.make n 0; head = 0; len = 0 }

  let wrap r i = if i >= Array.length r.buf then i - Array.length r.buf else i

  let push r k =
    r.buf.(wrap r (r.head + r.len)) <- k;
    r.len <- r.len + 1

  (* the oldest slot, or -1 when none is queued *)
  let pop r =
    if r.len = 0 then -1
    else
      let k = r.buf.(r.head) in
      r.head <- wrap r (r.head + 1);
      r.len <- r.len - 1;
      k
end

module Packed = struct
  type t = {
    window : int;
    nprocs : int;
    masks : int array; (* 8 * window rows, Run.Abstract section order *)
    slot_id : int array; (* message id per live slot *)
    slot_src : int array;
    slot_dst : int array;
    slot_color : int array; (* -1 = no color *)
    delivered : int array; (* mask of delivered live slots *)
    sp_s : int array; (* per slot: sends in the past of its send *)
    sp_r : int array; (* per slot: deliveries in the past of its send *)
    past_s : int array; (* per process *)
    past_r : int array; (* per process *)
    pend_to : int array; (* per process: pending slots addressed to it *)
    retire_q : Ring.t; (* delivered slots, delivery order *)
    mutable live : int;
    mutable events : int;
    mutable retired : int;
  }

  let create ~window ~nprocs () =
    {
      window;
      nprocs;
      masks = Array.make (8 * window) 0;
      slot_id = Array.make window (-1);
      slot_src = Array.make window (-1);
      slot_dst = Array.make window (-1);
      slot_color = Array.make window (-1);
      delivered = Array.make 1 0;
      sp_s = Array.make window 0;
      sp_r = Array.make window 0;
      past_s = Array.make nprocs 0;
      past_r = Array.make nprocs 0;
      pend_to = Array.make nprocs 0;
      retire_q = Ring.create window;
      live = 0;
      events = 0;
      retired = 0;
    }

  let popcount n =
    let c = ref 0 and v = ref n in
    while !v <> 0 do
      v := !v land (!v - 1);
      incr c
    done;
    !c

  let pending t =
    let p = ref 0 in
    for q = 0 to t.nprocs - 1 do
      p := !p + popcount t.pend_to.(q)
    done;
    !p

  let slot_msg t j =
    if j < 0 || j >= t.window || t.live land (1 lsl j) = 0 then
      invalid_arg "Monitor.slot_msg: free slot";
    t.slot_id.(j)

  let slot_delivered t j = t.delivered.(0) land (1 lsl j) <> 0

  (* the live slot holding [msg], or -1: a scan of the slot ids, which
     at packed widths costs less than hashing and allocates nothing.
     Any int is a valid id, so a free slot is told by [live], never by
     its stale id. *)
  let find t msg =
    let j = ref (-1) and k = ref 0 in
    while !j < 0 && !k < t.window do
      if t.slot_id.(!k) = msg && t.live land (1 lsl !k) <> 0 then j := !k;
      incr k
    done;
    !j

  (* recycle slot k: erase it from every row and past, and free it *)
  let retire t k =
    let keep = lnot (1 lsl k) in
    let m = t.masks in
    for i = 0 to (8 * t.window) - 1 do
      m.(i) <- m.(i) land keep
    done;
    for s = 0 to 7 do
      m.((s * t.window) + k) <- 0
    done;
    for j = 0 to t.window - 1 do
      t.sp_s.(j) <- t.sp_s.(j) land keep;
      t.sp_r.(j) <- t.sp_r.(j) land keep
    done;
    for p = 0 to t.nprocs - 1 do
      t.past_s.(p) <- t.past_s.(p) land keep;
      t.past_r.(p) <- t.past_r.(p) land keep
    done;
    t.delivered.(0) <- t.delivered.(0) land keep;
    t.live <- t.live land keep;
    t.retired <- t.retired + 1

  let full_mask t = (1 lsl t.window) - 1

  (* the lowest free slot, else the oldest delivered one, retired *)
  let alloc t =
    let free = full_mask t land lnot t.live in
    if free <> 0 then Bitset.lowest_bit free
    else
      let k = Ring.pop t.retire_q in
      if k < 0 then
        invalid_arg "Monitor.send: window exhausted (every slot pending)";
      retire t k;
      k

  let send t ~msg ~src ~dst ~color =
    if find t msg >= 0 then invalid_arg "Monitor.send: duplicate send";
    let j = alloc t in
    let bj = 1 lsl j in
    let w = t.window and m = t.masks in
    t.slot_id.(j) <- msg;
    t.slot_src.(j) <- src;
    t.slot_dst.(j) <- dst;
    t.slot_color.(j) <- color;
    let ps = t.past_s.(src) and pr = t.past_r.(src) in
    t.sp_s.(j) <- ps;
    t.sp_r.(j) <- pr;
    (* edges into the new send event: k.s ▷ j.s and k.r ▷ j.s *)
    or_rows m (ss * w) ps bj;
    m.((ss_t * w) + j) <- ps;
    or_rows m (rs * w) pr bj;
    m.((rs_t * w) + j) <- pr;
    (* must-edges into j's virtual delivery: j.r follows j.s (hence the
       send's whole past) and the current past of dst, in every
       completion *)
    let vs = ps lor bj lor t.past_s.(dst) in
    let vr = pr lor t.past_r.(dst) in
    or_rows m (sr * w) vs bj;
    m.((sr_t * w) + j) <- vs;
    or_rows m (rr * w) vr bj;
    m.((rr_t * w) + j) <- vr;
    (* j.s is now in src's past, so it precedes every delivery still
       pending at src *)
    let p = t.pend_to.(src) in
    if p <> 0 then (
      m.((sr * w) + j) <- m.((sr * w) + j) lor p;
      or_rows m (sr_t * w) p bj);
    t.past_s.(src) <- ps lor bj;
    t.pend_to.(dst) <- t.pend_to.(dst) lor bj;
    t.live <- t.live lor bj;
    t.events <- t.events + 1

  let deliver t ~msg =
    let j = find t msg in
    if j < 0 then invalid_arg "Monitor.deliver: message not sent";
    if slot_delivered t j then
      invalid_arg "Monitor.deliver: duplicate delivery";
    let bj = 1 lsl j in
    let w = t.window and m = t.masks in
    let q = t.slot_dst.(j) in
    (* the real past of j.r: q's past joined with the send's past. The
       virtual rows written at send time are always a subset, so only
       the delta needs forward updates. *)
    let es = t.past_s.(q) lor t.sp_s.(j) lor bj in
    let er = t.past_r.(q) lor t.sp_r.(j) in
    or_rows m (sr * w) (es land lnot m.((sr_t * w) + j)) bj;
    m.((sr_t * w) + j) <- es;
    or_rows m (rr * w) (er land lnot m.((rr_t * w) + j)) bj;
    m.((rr_t * w) + j) <- er;
    (* q's past grows: the newly absorbed events (and j.r itself)
       precede every delivery still pending at q *)
    let ds = es land lnot t.past_s.(q) in
    let dr = (er lor bj) land lnot t.past_r.(q) in
    let p = t.pend_to.(q) land lnot bj in
    if p <> 0 then (
      or_rows m (sr * w) ds p;
      or_rows m (rr * w) dr p;
      or_rows m (sr_t * w) p ds;
      or_rows m (rr_t * w) p dr);
    t.past_s.(q) <- es;
    t.past_r.(q) <- er lor bj;
    t.pend_to.(q) <- t.pend_to.(q) land lnot bj;
    t.delivered.(0) <- t.delivered.(0) lor bj;
    Ring.push t.retire_q j;
    t.events <- t.events + 1

  let frontier_bytes t =
    let word = Sys.word_size / 8 in
    let ints =
      (8 * t.window) (* masks *)
      + (6 * t.window) (* slot_id/src/dst/color, sp_s, sp_r *)
      + (3 * t.nprocs) (* past_s, past_r, pend_to *)
      + 1 (* delivered *)
      + 4 (* live, events, retired, and the ring head *)
    in
    (* plus 4 words a slot: a fixed allowance that B15 pins, not a count
       of the record; the slot ring needs only [window] ints of it *)
    word * (ints + (4 * t.window))

  let window t = t.window
  let live t = t.live
  let masks t = t.masks
  let slot_src t = t.slot_src
  let slot_dst t = t.slot_dst
  let slot_color t = t.slot_color
end

module Wide = struct
  (* the Packed automaton verbatim, with every slot mask a Bitset of
     capacity [window]; the update rules translate operation for
     operation (lor -> union/add, land lnot -> diff/remove), so the
     differential test against the packed path on a truncated window is
     exact equality of relations *)
  type t = {
    window : int;
    nprocs : int;
    rel : Bitset.t array; (* 8 * window rows, Run.Abstract section order *)
    slot_id : int array;
    ids : int array;
        (* the live slots by message id: open addressing over a
           power-of-two table at least twice the window, each entry a
           slot + 1 (0 is empty), probed linearly from [home] *)
    slot_src : int array;
    slot_dst : int array;
    slot_color : int array;
    delivered : Bitset.t;
    sp_s : Bitset.t array;
    sp_r : Bitset.t array;
    past_s : Bitset.t array;
    past_r : Bitset.t array;
    pend_to : Bitset.t array;
    retire_q : Ring.t;
    live : Bitset.t;
    mutable events : int;
    mutable retired : int;
    empty : Bitset.t; (* constant, for clearing rows *)
    tmp_a : Bitset.t; (* scratch, valid within one operation *)
    tmp_b : Bitset.t;
    tmp_c : Bitset.t;
    tmp_d : Bitset.t;
    tmp_e : Bitset.t;
  }

  let create ~window ~nprocs () =
    let bs () = Bitset.create window in
    {
      window;
      nprocs;
      rel = Array.init (8 * window) (fun _ -> bs ());
      slot_id = Array.make window (-1);
      ids =
        (let n = ref 1 in
         while !n < 2 * window do
           n := 2 * !n
         done;
         Array.make !n 0);
      slot_src = Array.make window (-1);
      slot_dst = Array.make window (-1);
      slot_color = Array.make window (-1);
      delivered = bs ();
      sp_s = Array.init window (fun _ -> bs ());
      sp_r = Array.init window (fun _ -> bs ());
      past_s = Array.init nprocs (fun _ -> bs ());
      past_r = Array.init nprocs (fun _ -> bs ());
      pend_to = Array.init nprocs (fun _ -> bs ());
      retire_q = Ring.create window;
      live = bs ();
      events = 0;
      retired = 0;
      empty = bs ();
      tmp_a = bs ();
      tmp_b = bs ();
      tmp_c = bs ();
      tmp_d = bs ();
      tmp_e = bs ();
    }

  let pending t =
    let p = ref 0 in
    for q = 0 to t.nprocs - 1 do
      p := !p + Bitset.cardinal t.pend_to.(q)
    done;
    !p

  let slot_msg t j =
    if j < 0 || j >= t.window || not (Bitset.mem t.live j) then
      invalid_arg "Monitor.slot_msg: free slot";
    t.slot_id.(j)

  let slot_delivered t j = Bitset.mem t.delivered j

  (* where the probe for [msg] starts: a multiplicative hash, so
     consecutive ids spread over the table *)
  let home t msg =
    ((msg * 0x2545F4914F6CDD1D) lsr 20) land (Array.length t.ids - 1)

  let rec probe t msg i =
    let e = t.ids.(i) in
    if e = 0 then -1
    else if t.slot_id.(e - 1) = msg then i
    else probe t msg ((i + 1) land (Array.length t.ids - 1))

  (* the live slot holding [msg], or -1 *)
  let find t msg =
    let i = probe t msg (home t msg) in
    if i < 0 then -1 else t.ids.(i) - 1

  let rec first_free t i =
    if t.ids.(i) = 0 then i
    else first_free t ((i + 1) land (Array.length t.ids - 1))

  (* live slot [k] leaves the table; the entries after it in its run
     move back into the hole when their probe passed it, so a probe
     still stops only at a miss *)
  let rec close_gap t hole i =
    let mask = Array.length t.ids - 1 in
    let e = t.ids.(i) in
    if e <> 0 then
      if (i - home t t.slot_id.(e - 1)) land mask >= (i - hole) land mask
      then begin
        t.ids.(hole) <- e;
        t.ids.(i) <- 0;
        close_gap t i ((i + 1) land mask)
      end
      else close_gap t hole ((i + 1) land mask)

  let unindex t k =
    let i = probe t t.slot_id.(k) (home t t.slot_id.(k)) in
    t.ids.(i) <- 0;
    close_gap t i ((i + 1) land (Array.length t.ids - 1))

  let retire t k =
    unindex t k;
    for i = 0 to (8 * t.window) - 1 do
      Bitset.remove t.rel.(i) k
    done;
    for s = 0 to 7 do
      Bitset.copy_into ~dst:t.rel.((s * t.window) + k) t.empty
    done;
    for j = 0 to t.window - 1 do
      Bitset.remove t.sp_s.(j) k;
      Bitset.remove t.sp_r.(j) k
    done;
    for p = 0 to t.nprocs - 1 do
      Bitset.remove t.past_s.(p) k;
      Bitset.remove t.past_r.(p) k
    done;
    Bitset.remove t.delivered k;
    Bitset.remove t.live k;
    t.retired <- t.retired + 1

  (* the least free slot, else the oldest delivered one, retired *)
  let alloc t =
    let free = ref 0 in
    while !free < t.window && Bitset.mem t.live !free do
      incr free
    done;
    if !free < t.window then !free
    else
      let k = Ring.pop t.retire_q in
      if k < 0 then
        invalid_arg "Monitor.send: window exhausted (every slot pending)";
      retire t k;
      k

  (* the row updates, as first-order scans of a set's members: row
     [base + k] gains column [j], or the set [src], for each member [k]
     of [s] *)
  let add_to_rows m base s j =
    let k = ref (Bitset.next s 0) in
    while !k < Bitset.capacity s do
      Bitset.add m.(base + !k) j;
      k := Bitset.next s (!k + 1)
    done

  let union_into_rows m base s src =
    let k = ref (Bitset.next s 0) in
    while !k < Bitset.capacity s do
      Bitset.union_into ~dst:m.(base + !k) src;
      k := Bitset.next s (!k + 1)
    done

  let send t ~msg ~src ~dst ~color =
    if find t msg >= 0 then invalid_arg "Monitor.send: duplicate send";
    let j = alloc t in
    let w = t.window and m = t.rel in
    t.slot_id.(j) <- msg;
    t.ids.(first_free t (home t msg)) <- j + 1;
    t.slot_src.(j) <- src;
    t.slot_dst.(j) <- dst;
    t.slot_color.(j) <- color;
    let ps = t.past_s.(src) and pr = t.past_r.(src) in
    Bitset.copy_into ~dst:t.sp_s.(j) ps;
    Bitset.copy_into ~dst:t.sp_r.(j) pr;
    add_to_rows m (ss * w) ps j;
    Bitset.copy_into ~dst:m.((ss_t * w) + j) ps;
    add_to_rows m (rs * w) pr j;
    Bitset.copy_into ~dst:m.((rs_t * w) + j) pr;
    let vs = t.tmp_a in
    Bitset.copy_into ~dst:vs ps;
    Bitset.add vs j;
    Bitset.union_into ~dst:vs t.past_s.(dst);
    let vr = t.tmp_b in
    Bitset.copy_into ~dst:vr pr;
    Bitset.union_into ~dst:vr t.past_r.(dst);
    add_to_rows m (sr * w) vs j;
    Bitset.copy_into ~dst:m.((sr_t * w) + j) vs;
    add_to_rows m (rr * w) vr j;
    Bitset.copy_into ~dst:m.((rr_t * w) + j) vr;
    let p = t.pend_to.(src) in
    if not (Bitset.is_empty p) then (
      Bitset.union_into ~dst:m.((sr * w) + j) p;
      add_to_rows m (sr_t * w) p j);
    Bitset.add t.past_s.(src) j;
    Bitset.add t.pend_to.(dst) j;
    Bitset.add t.live j;
    t.events <- t.events + 1

  let deliver t ~msg =
    let j = find t msg in
    if j < 0 then invalid_arg "Monitor.deliver: message not sent";
    if slot_delivered t j then
      invalid_arg "Monitor.deliver: duplicate delivery";
    let w = t.window and m = t.rel in
    let q = t.slot_dst.(j) in
    let es = t.tmp_a in
    Bitset.copy_into ~dst:es t.past_s.(q);
    Bitset.union_into ~dst:es t.sp_s.(j);
    Bitset.add es j;
    let er = t.tmp_b in
    Bitset.copy_into ~dst:er t.past_r.(q);
    Bitset.union_into ~dst:er t.sp_r.(j);
    (* delta-only forward updates, as the packed path; the delta
       scratch is dead before [ds] reuses it *)
    let delta = t.tmp_c in
    Bitset.copy_into ~dst:delta es;
    Bitset.diff_into ~dst:delta m.((sr_t * w) + j);
    add_to_rows m (sr * w) delta j;
    Bitset.copy_into ~dst:m.((sr_t * w) + j) es;
    Bitset.copy_into ~dst:delta er;
    Bitset.diff_into ~dst:delta m.((rr_t * w) + j);
    add_to_rows m (rr * w) delta j;
    Bitset.copy_into ~dst:m.((rr_t * w) + j) er;
    let ds = t.tmp_c in
    Bitset.copy_into ~dst:ds es;
    Bitset.diff_into ~dst:ds t.past_s.(q);
    let dr = t.tmp_d in
    Bitset.copy_into ~dst:dr er;
    Bitset.add dr j;
    Bitset.diff_into ~dst:dr t.past_r.(q);
    let p = t.tmp_e in
    Bitset.copy_into ~dst:p t.pend_to.(q);
    Bitset.remove p j;
    if not (Bitset.is_empty p) then (
      union_into_rows m (sr * w) ds p;
      union_into_rows m (rr * w) dr p;
      union_into_rows m (sr_t * w) p ds;
      union_into_rows m (rr_t * w) p dr);
    Bitset.copy_into ~dst:t.past_s.(q) es;
    Bitset.copy_into ~dst:t.past_r.(q) er;
    Bitset.add t.past_r.(q) j;
    Bitset.remove t.pend_to.(q) j;
    Bitset.add t.delivered j;
    Ring.push t.retire_q j;
    t.events <- t.events + 1

  let frontier_bytes t =
    let word = Sys.word_size / 8 in
    (* a Bitset of capacity w is ~ceil(w/8) bytes plus a boxed header *)
    let bs = ((t.window + 7) / 8) + (2 * word) in
    (* the published figure, which B15 pins: it counts two scratch sets
       but not [empty] or tmp_c..tmp_e, and the packed path's allowance
       stands in for the retire ring and the id table *)
    let sets =
      (8 * t.window) (* rel *) + (2 * t.window) (* sp_s, sp_r *)
      + (3 * t.nprocs) (* past_s, past_r, pend_to *)
      + 4 (* delivered, live, tmp_a, tmp_b *)
    in
    (sets * bs)
    + (word * (4 * t.window)) (* slot arrays *)
    + (word * (4 * t.window)) (* the packed path's fixed allowance *)

  let window t = t.window
  let live t = t.live
  let rel t = t.rel
  let slot_src t = t.slot_src
  let slot_dst t = t.slot_dst
  let slot_color t = t.slot_color
end

type rep = P of Packed.t | W of Wide.t
type t = rep

let rep t = t

let create ?(window = 32) ?wide ~nprocs () =
  if window < 1 || window > max_wide_window then
    invalid_arg "Monitor.create: window out of range";
  if nprocs <= 0 then invalid_arg "Monitor.create: nprocs must be positive";
  let wide =
    match wide with Some w -> w || window > max_window | None -> window > max_window
  in
  if wide then W (Wide.create ~window ~nprocs ())
  else P (Packed.create ~window ~nprocs ())

let window = function P p -> p.Packed.window | W w -> w.Wide.window
let nprocs = function P p -> p.Packed.nprocs | W w -> w.Wide.nprocs
let events = function P p -> p.Packed.events | W w -> w.Wide.events
let retired = function P p -> p.Packed.retired | W w -> w.Wide.retired
let pending = function P p -> Packed.pending p | W w -> Wide.pending w
let is_wide = function P _ -> false | W _ -> true

let slot_src = function P p -> p.Packed.slot_src | W w -> w.Wide.slot_src
let slot_dst = function P p -> p.Packed.slot_dst | W w -> w.Wide.slot_dst

let slot_color = function
  | P p -> p.Packed.slot_color
  | W w -> w.Wide.slot_color

let slot_msg t j =
  match t with P p -> Packed.slot_msg p j | W w -> Wide.slot_msg w j

let slot_delivered t j =
  match t with
  | P p -> Packed.slot_delivered p j
  | W w -> Wide.slot_delivered w j

let send t ~msg ~src ~dst ?(color = -1) () =
  if src < 0 || src >= nprocs t then invalid_arg "Monitor.send: bad src";
  if dst < 0 || dst >= nprocs t then invalid_arg "Monitor.send: bad dst";
  match t with
  | P p -> Packed.send p ~msg ~src ~dst ~color
  | W w -> Wide.send w ~msg ~src ~dst ~color

let deliver t ~msg =
  match t with P p -> Packed.deliver p ~msg | W w -> Wide.deliver w ~msg

let frontier_bytes = function
  | P p -> Packed.frontier_bytes p
  | W w -> Wide.frontier_bytes w
