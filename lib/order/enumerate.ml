let rec insert_everywhere x = function
  | [] -> [ [ x ] ]
  | y :: rest ->
      (x :: y :: rest)
      :: List.map (fun l -> y :: l) (insert_everywhere x rest)

let rec permutations = function
  | [] -> [ [] ]
  | x :: rest -> List.concat_map (insert_everywhere x) (permutations rest)

(* Per-process events in canonical order: message index ascending, send
   before delivery (both only land on one process when src = dst). *)
let events_of ~nmsgs ~msgs p =
  let acc = ref [] in
  for m = nmsgs - 1 downto 0 do
    let src, dst = msgs.(m) in
    if dst = p then acc := Event.deliver m :: !acc;
    if src = p then acc := Event.send m :: !acc
  done;
  !acc

(* Both kernels number their builder's vertices sends first: [x.s] is
   vertex [x] and [x.r] is vertex [nmsgs + x]. A vertex's reach row then
   holds the sends it reaches in its low [nmsgs] bits and the deliveries
   above them, so the leaf masks are one mask and one shift per row
   ({!masks_of_builder}). *)
let vertex ~nmsgs (e : Event.t) =
  match e.point with Event.S -> e.msg | Event.R -> nmsgs + e.msg

(* a builder whose only edges are the [x.s ▷ x.r] of every message *)
let message_order ~nmsgs =
  let b = Order_builder.create (2 * nmsgs) in
  for m = 0 to nmsgs - 1 do
    Order_builder.add_edge_exn b m (nmsgs + m)
  done;
  b

(* The backtracking kernel. One Order_builder carries the happened-before
   closure across the whole configuration: it starts with the x.s ▷ x.r
   edge of every message, and placing an event as the next step of its
   process pushes one program-order edge (undone on backtrack). Runs that
   share an enumeration prefix share all closure work for that prefix, and
   cyclic placements are pruned as soon as the offending edge is pushed
   instead of after a full from-scratch closure in Run.of_sequences.

   [leaf ~seq ~builder] is called once per complete run; [seq] holds each
   process's chosen order (valid only for the duration of the call) and
   [builder] the live closure of exactly that run's order. *)
let enum ~nprocs ~msgs ~leaf =
  let nmsgs = Array.length msgs in
  let valid =
    Array.for_all
      (fun (src, dst) -> src >= 0 && src < nprocs && dst >= 0 && dst < nprocs)
      msgs
  in
  if valid then begin
    let b = message_order ~nmsgs in
    let evs =
      Array.init nprocs (fun p ->
          Array.of_list (events_of ~nmsgs ~msgs p))
    in
    let nev = Array.map Array.length evs in
    let used = Array.map (fun e -> Array.make (Array.length e) false) evs in
    let chosen =
      Array.map (fun e -> Array.make (Array.length e) (Event.send 0)) evs
    in
    let rec proc p =
      if p = nprocs then leaf ~seq:chosen ~builder:b else place p 0 (-1)
    and place p i prev =
      if i = nev.(p) then proc (p + 1)
      else
        for j = 0 to nev.(p) - 1 do
          if not used.(p).(j) then begin
            let e = evs.(p).(j) in
            let v = vertex ~nmsgs e in
            let m = Order_builder.mark b in
            let ok = prev < 0 || Order_builder.add_edge b prev v = `Ok in
            if ok then begin
              used.(p).(j) <- true;
              chosen.(p).(i) <- e;
              place p (i + 1) v;
              used.(p).(j) <- false
            end;
            Order_builder.undo b m
          end
        done
    in
    proc 0
  end

(* A concrete run's order lives on Event.encode'd vertices: its snapshot
   renumbers the builder's sends-first vertices. *)
let iter_runs ~nprocs ~msgs f =
  let nmsgs = Array.length msgs in
  let encode =
    Array.init (2 * nmsgs) (fun v ->
        if v < nmsgs then 2 * v else (2 * (v - nmsgs)) + 1)
  in
  enum ~nprocs ~msgs ~leaf:(fun ~seq ~builder ->
      f
        (Run.of_enumeration ~nprocs ~msgs
           ~po:(Order_builder.snapshot ~relabel:encode builder)
           (Array.map Array.to_list seq)))

let fold_runs ~nprocs ~msgs ~init ~f =
  let acc = ref init in
  iter_runs ~nprocs ~msgs (fun r -> acc := f !acc r);
  !acc

let runs ~nprocs ~msgs =
  List.rev (fold_runs ~nprocs ~msgs ~init:[] ~f:(fun acc r -> r :: acc))

let count_runs ~nprocs ~msgs =
  (* leaves are counted off the live closure: no snapshot, no Run value *)
  let n = ref 0 in
  enum ~nprocs ~msgs ~leaf:(fun ~seq:_ ~builder:_ -> incr n);
  !n

(* Split a builder's reach and predecessor rows into Run.Abstract's
   packed msg×msg masks (rows ss sr rs rr, then their transposes). Under
   the sends-first numbering row [x.s] is ss in its low bits and sr
   above them, and row [x.r] likewise rs and rr; the predecessor rows of
   [y.s] and [y.r] give the transposes the same way. Valid on partial
   closures too: the projection of whatever edges are present. *)
let masks_of_builder ~nmsgs b =
  let masks = Array.make (8 * nmsgs) 0 in
  let low = (1 lsl nmsgs) - 1 in
  for x = 0 to nmsgs - 1 do
    let s = Order_builder.reach_mask b x
    and r = Order_builder.reach_mask b (nmsgs + x)
    and ps = Order_builder.pred_mask b x
    and pr = Order_builder.pred_mask b (nmsgs + x) in
    masks.(x) <- s land low;
    masks.(nmsgs + x) <- s lsr nmsgs;
    masks.((2 * nmsgs) + x) <- r land low;
    masks.((3 * nmsgs) + x) <- r lsr nmsgs;
    masks.((4 * nmsgs) + x) <- ps land low;
    masks.((5 * nmsgs) + x) <- pr land low;
    masks.((6 * nmsgs) + x) <- ps lsr nmsgs;
    masks.((7 * nmsgs) + x) <- pr lsr nmsgs
  done;
  masks

let shared_attrs msgs =
  Run.attr_table
    (Array.map (fun (src, dst) -> Run.attrs_known ~src ~dst ()) msgs)

(* The abstract fast path: split the builder's event-level rows
   straight into Run.Abstract's packed msg×msg masks at each leaf —
   no poset snapshot, no concrete Run.t, no per-run attrs. All runs of a
   configuration share one attrs array (the records are immutable). *)
let fold_abstracts ~nprocs ~msgs ~init ~f =
  let nmsgs = Array.length msgs in
  let attrs = shared_attrs msgs in
  let acc = ref init in
  enum ~nprocs ~msgs ~leaf:(fun ~seq:_ ~builder ->
      acc :=
        f !acc
          (Run.Abstract.of_masks ~nmsgs ~attrs (masks_of_builder ~nmsgs builder)));
  !acc

(* The pre-kernel reference enumerator: materialized per-process
   permutations, a filtered product, and a from-scratch closure per
   candidate in Run.of_sequences. Kept verbatim as the differential
   baseline for the incremental kernel (test/test_eval_fast.ml) and as the
   "before" arm of bench B14. Note the two enumerators agree on the *set*
   of runs but emit them in different orders. *)
let runs_ref ~nprocs ~msgs =
  let nmsgs = Array.length msgs in
  let per_proc =
    Array.init nprocs (fun p -> permutations (events_of ~nmsgs ~msgs p))
  in
  let acc = ref [] in
  let seq = Array.make nprocs [] in
  let rec product p =
    if p = nprocs then begin
      match Run.of_sequences ~nprocs ~msgs (Array.copy seq) with
      | Ok r -> acc := r :: !acc
      | Error _ -> ()
    end
    else
      List.iter
        (fun order ->
          seq.(p) <- order;
          product (p + 1))
        per_proc.(p)
  in
  product 0;
  List.rev !acc

let configs ?(allow_self = false) ~nprocs ~nmsgs () =
  let endpoints =
    List.concat_map
      (fun s -> List.init nprocs (fun d -> (s, d)))
      (List.init nprocs Fun.id)
    |> List.filter (fun (s, d) -> allow_self || s <> d)
  in
  let rec go k =
    if k = 0 then [ [] ]
    else
      let rest = go (k - 1) in
      List.concat_map (fun e -> List.map (fun l -> e :: l) rest) endpoints
  in
  List.map Array.of_list (go nmsgs)

let all_runs ?allow_self ~nprocs ~nmsgs () =
  List.concat_map
    (fun msgs -> runs ~nprocs ~msgs)
    (configs ?allow_self ~nprocs ~nmsgs ())

let abstract_runs ?allow_self ~nprocs ~nmsgs () =
  List.rev
    (List.fold_left
       (fun acc msgs ->
         fold_abstracts ~nprocs ~msgs ~init:acc ~f:(fun acc r -> r :: acc))
       []
       (configs ?allow_self ~nprocs ~nmsgs ()))

let fold_runs_par ~pool ?allow_self ~nprocs ~nmsgs ~init ~f ~merge () =
  (* shard by enumeration prefix: one task per message configuration, the
     outermost loop of [all_runs]. Each task folds its configuration's
     runs in the sequential enumeration order; the pool merges the partial
     accumulators in configuration order, so the reduction visits run
     results exactly as the sequential [all_runs] fold would — counts and
     even ordered collections come out byte-identical for every job
     count. Runs are streamed off the backtracking kernel one at a time,
     never materialized per configuration. *)
  let cfgs = Array.of_list (configs ?allow_self ~nprocs ~nmsgs ()) in
  Mo_par.Pool.fold pool (Array.length cfgs)
    ~f:(fun i -> fold_runs ~nprocs ~msgs:cfgs.(i) ~init ~f)
    ~merge ~init

let fold_abstracts_par ~pool ?allow_self ~nprocs ~nmsgs ~init ~f ~merge () =
  (* same sharding and merge order as [fold_runs_par], with the abstract
     fast path at the leaves *)
  let cfgs = Array.of_list (configs ?allow_self ~nprocs ~nmsgs ()) in
  Mo_par.Pool.fold pool (Array.length cfgs)
    ~f:(fun i -> fold_abstracts ~nprocs ~msgs:cfgs.(i) ~init ~f)
    ~merge ~init

(* ------------------------------------------------------------------ *)
(* Symmetry quotients (DESIGN.md §3j). Two nested, exact quotients:

   Across configurations — [configs] is closed under process renaming,
   and every classification verdict is invariant under it (predicate
   guards are src/dst equality tests, lattice membership and the
   causal/sync limits are purely structural), so the model checker only
   needs one representative per renaming orbit, weighted by the orbit's
   size. [configs_sym] also identifies configs that differ only in
   message *order*: relabeling messages maps runs to runs bijectively
   and no predicate can observe the labels (quantifiers range over
   message tuples, attrs travel with the relabeling). Orbit sizes come
   out of orbit-stabilizer (|orbit| = nprocs!/|Stab|); here we obtain
   them by walking each orbit once and summing the ordered-config counts
   of its distinct members, which is the same number without needing
   the stabilizer explicitly.

   Within a configuration — messages with identical (src, dst) are
   interchangeable: permuting them inside their class maps runs to runs
   and preserves every verdict. That action is free (two distinct
   messages give the permuted run a different send order somewhere),
   so each orbit has exactly [sym_mult] runs and exactly one canonical
   representative: the run in which each class's send events appear in
   message-index order in the sender's sequence. *)

let sym_mult ~msgs =
  (* ∏ over interchangeability classes of |class|!, computed as: the c-th
     copy of an endpoint pair contributes a factor c *)
  let n = Array.length msgs in
  let mult = ref 1 in
  for m = 0 to n - 1 do
    let c = ref 1 in
    for m' = 0 to m - 1 do
      if msgs.(m') = msgs.(m) then incr c
    done;
    mult := !mult * !c
  done;
  !mult

module Int_set = Hashtbl.Make (Int)

(* The orbit walk. An endpoint (s, d) is coded s * nprocs + d, so int
   order is tuple order; a sorted config packs into one int, most
   significant code first, so int order is lexicographic [compare].
   Sorted configs (non-decreasing codes) are walked in lexicographic
   order, and the first one not yet seen opens its orbit: every renaming
   is applied through a precomputed code table, the renamed codes are
   re-sorted and packed, and each distinct member is marked seen and
   adds the ordered configs it stands for, nmsgs!/∏(run lengths!). The
   representative is the least member. Work is orbits × nprocs!, and
   the only state kept across orbits is the seen set. *)
let configs_sym ?(allow_self = false) ~nprocs ~nmsgs () =
  let base = nprocs * nprocs in
  let rec fits p k =
    k = 0 || (p <= max_int / max base 1 && fits (p * base) (k - 1))
  in
  if not (fits 1 nmsgs) then
    invalid_arg "Enumerate.configs_sym: (nprocs^2)^nmsgs overflows the key";
  let codes =
    Array.of_list
      (List.filter
         (fun c -> allow_self || c / nprocs <> c mod nprocs)
         (List.init base Fun.id))
  in
  let renamings =
    List.map
      (fun pi ->
        let pi = Array.of_list pi in
        Array.init base (fun c ->
            (pi.(c / nprocs) * nprocs) + pi.(c mod nprocs)))
      (permutations (List.init nprocs Fun.id))
  in
  let fact = Array.make (nmsgs + 1) 1 in
  for i = 1 to nmsgs do
    fact.(i) <- fact.(i - 1) * i
  done;
  let ordered (sorted : int array) =
    let mult = ref fact.(nmsgs) and i = ref 0 in
    while !i < nmsgs do
      let j = ref !i in
      while !j < nmsgs && sorted.(!j) = sorted.(!i) do
        incr j
      done;
      mult := !mult / fact.(!j - !i);
      i := !j
    done;
    !mult
  in
  let seen = Int_set.create 1024 in
  let first = Array.make nmsgs 0 and member = Array.make nmsgs 0 in
  let orbits = ref [] in
  let open_orbit () =
    let rep = ref max_int and weight = ref 0 in
    List.iter
      (fun table ->
        for i = 0 to nmsgs - 1 do
          let c = table.(first.(i)) in
          let j = ref i in
          while !j > 0 && member.(!j - 1) > c do
            member.(!j) <- member.(!j - 1);
            decr j
          done;
          member.(!j) <- c
        done;
        let key = Array.fold_left (fun k c -> (k * base) + c) 0 member in
        if not (Int_set.mem seen key) then begin
          Int_set.add seen key ();
          weight := !weight + ordered member;
          rep := Int.min !rep key
        end)
      renamings;
    let rep =
      let k = ref !rep and rep = Array.make nmsgs (0, 0) in
      for i = nmsgs - 1 downto 0 do
        let c = !k mod base in
        rep.(i) <- (c / nprocs, c mod nprocs);
        k := !k / base
      done;
      rep
    in
    orbits := (rep, !weight) :: !orbits
  in
  let rec walk k lo key =
    if k = nmsgs then (if not (Int_set.mem seen key) then open_orbit ())
    else
      for e = lo to Array.length codes - 1 do
        first.(k) <- codes.(e);
        walk (k + 1) e ((key * base) + codes.(e))
      done
  in
  walk 0 0 0;
  List.rev !orbits

(* ------------------------------------------------------------------ *)
(* The canonical-representative kernel. Same backtracking shape as
   [enum], with three additions:

   - σ symmetry breaking: event j of process p is placeable only once
     [need.(p).(j)] ⊆ used — the earlier send events of j's
     interchangeability class — so exactly the canonical run of each
     σ-orbit survives the search; non-canonical subtrees are pruned at
     the choice point, never generated and filtered.

   - decided-subtree pruning: at each process boundary, an optional
     [prune = (decided, on_pruned)] inspects the *partial* closure's
     abstract projection. [decided] must be monotone — closures only
     grow along a branch, so once it answers true it stays true on every
     completion — and when it fires the whole subtree collapses into one
     [on_pruned ~runs:n] callback, where n canonical completions are
     counted without building their abstracts.

   - memoized completion counting: the count of canonical completions
     from a boundary depends only on (next process, reach rows) — the
     closure determines every future cycle check and the need masks are
     static — so counts are cached in a bounded direct-mapped table
     keyed on that packed signature. Collisions overwrite; soundness
     comes from the structural key comparison, the bound keeps memory
     flat per configuration. *)

let sig_tbl_size = 1 lsl 12

let enum_sym ~nprocs ~msgs ~prune ~leaf =
  let nmsgs = Array.length msgs in
  let valid =
    Array.for_all
      (fun (src, dst) -> src >= 0 && src < nprocs && dst >= 0 && dst < nprocs)
      msgs
  in
  if valid then begin
    let b = message_order ~nmsgs in
    let evs =
      Array.init nprocs (fun p -> Array.of_list (events_of ~nmsgs ~msgs p))
    in
    let nev = Array.map Array.length evs in
    let vtx = Array.map (Array.map (vertex ~nmsgs)) evs in
    (* a vertex below [nmsgs] is a send, and its message *)
    let need =
      Array.init nprocs (fun p ->
          Array.init nev.(p) (fun j ->
              let m = vtx.(p).(j) in
              if m >= nmsgs then 0
              else begin
                let mask = ref 0 in
                for j' = 0 to nev.(p) - 1 do
                  let m' = vtx.(p).(j') in
                  if m' < m && msgs.(m') = msgs.(m) then
                    mask := !mask lor (1 lsl j')
                done;
                !mask
              end))
    in
    let used = Array.make nprocs 0 in
    let attrs = shared_attrs msgs in
    let abstract () =
      Run.Abstract.of_masks ~nmsgs ~attrs (masks_of_builder ~nmsgs b)
    in
    (* the completion-count memo is only consulted under a prune; without
       one, two 4096-slot tables per configuration would be garbage *)
    let slots = if Option.is_some prune then sig_tbl_size else 0 in
    let keys = Array.make slots [||] in
    let vals = Array.make slots 0 in
    let signature p =
      let key = Array.make (1 + (2 * nmsgs)) p in
      for u = 0 to (2 * nmsgs) - 1 do
        key.(u + 1) <- Order_builder.reach_mask b u
      done;
      key
    in
    let rec count_proc p =
      if p = nprocs then 1
      else begin
        let key = signature p in
        let h = ref 0 in
        Array.iter (fun x -> h := ((!h * 0x01000193) lxor x) land max_int) key;
        let slot = !h land (sig_tbl_size - 1) in
        if keys.(slot) = key then vals.(slot)
        else begin
          let n = count_place p 0 (-1) in
          keys.(slot) <- key;
          vals.(slot) <- n;
          n
        end
      end
    and count_place p i prev =
      if i = nev.(p) then count_proc (p + 1)
      else begin
        let total = ref 0 in
        let u = used.(p) in
        for j = 0 to nev.(p) - 1 do
          if u land (1 lsl j) = 0 && need.(p).(j) land lnot u = 0 then begin
            let e = vtx.(p).(j) in
            let m = Order_builder.mark b in
            let ok = prev < 0 || Order_builder.add_edge b prev e = `Ok in
            if ok then begin
              used.(p) <- u lor (1 lsl j);
              total := !total + count_place p (i + 1) e;
              used.(p) <- u
            end;
            Order_builder.undo b m
          end
        done;
        !total
      end
    in
    let rec proc p =
      if p = nprocs then leaf (abstract ())
      else begin
        let handled =
          match prune with
          | Some (decided, on_pruned) ->
              let a = abstract () in
              if decided a then begin
                let n = count_proc p in
                if n > 0 then on_pruned ~runs:n a;
                true
              end
              else false
          | None -> false
        in
        if not handled then place p 0 (-1)
      end
    and place p i prev =
      if i = nev.(p) then proc (p + 1)
      else begin
        let u = used.(p) in
        for j = 0 to nev.(p) - 1 do
          if u land (1 lsl j) = 0 && need.(p).(j) land lnot u = 0 then begin
            let e = vtx.(p).(j) in
            let m = Order_builder.mark b in
            let ok = prev < 0 || Order_builder.add_edge b prev e = `Ok in
            if ok then begin
              used.(p) <- u lor (1 lsl j);
              place p (i + 1) e;
              used.(p) <- u
            end;
            Order_builder.undo b m
          end
        done
      end
    in
    proc 0
  end

let fold_abstracts_sym ~nprocs ~msgs ?prune ~init ~f () =
  let acc = ref init in
  let prune =
    Option.map
      (fun (decided, on_pruned) ->
        (decided, fun ~runs a -> acc := on_pruned !acc ~runs a))
      prune
  in
  enum_sym ~nprocs ~msgs ~prune ~leaf:(fun a -> acc := f !acc a);
  !acc

let count_runs_sym ~nprocs ~msgs =
  (* the always-true prune collapses the whole configuration into one
     memoized count at the p = 0 boundary; no leaf is ever enumerated *)
  let n = ref 0 in
  enum_sym ~nprocs ~msgs
    ~prune:(Some ((fun _ -> true), fun ~runs _ -> n := !n + runs))
    ~leaf:(fun _ -> ());
  !n * sym_mult ~msgs

let fold_abstracts_sym_par ~pool ?allow_self ~sizes ?prune ~init ~f ~merge
    () =
  (* each size's orbit configurations are found over the pool, then one
     fold shards the whole tier by (size, representative) — the
     quotiented enumeration prefix — and merges in that order, so
     aggregates are byte-identical at every job count and no size waits
     for the one before it to drain *)
  let sizes = Array.of_list sizes in
  let orbits =
    Mo_par.Pool.map pool ~chunk:1 (Array.length sizes) ~f:(fun i ->
        let nprocs, nmsgs = sizes.(i) in
        List.map
          (fun (msgs, cmult) -> (nprocs, msgs, cmult * sym_mult ~msgs))
          (configs_sym ?allow_self ~nprocs ~nmsgs ()))
  in
  let shards = Array.of_list (List.concat (Array.to_list orbits)) in
  Mo_par.Pool.fold pool (Array.length shards)
    ~f:(fun i ->
      let nprocs, msgs, mult = shards.(i) in
      let prune =
        Option.map
          (fun (decided, on_pruned) ->
            (decided, fun acc ~runs a -> on_pruned acc ~mult ~runs a))
          prune
      in
      fold_abstracts_sym ~nprocs ~msgs ?prune ~init
        ~f:(fun acc a -> f acc ~mult a)
        ())
    ~merge ~init
