open Mo_order

let conjunct_holds run assignment (c : Term.conjunct) =
  let ev (e : Term.endpoint) =
    { Event.msg = assignment.(e.var); point = e.point }
  in
  Run.Abstract.lt run (ev c.before) (ev c.after)

let guard_holds run assignment (g : Term.guard) =
  let attrs v = Run.Abstract.attrs run assignment.(v) in
  match g with
  | Term.Same_src (x, y) -> (
      match ((attrs x).Run.src, (attrs y).Run.src) with
      | Some a, Some b -> a = b
      | _ -> false)
  | Term.Same_dst (x, y) -> (
      match ((attrs x).Run.dst, (attrs y).Run.dst) with
      | Some a, Some b -> a = b
      | _ -> false)
  | Term.Color_is (x, c) -> (attrs x).Run.color = Some c

let check_assignment p run assignment =
  if Array.length assignment <> Forbidden.nvars p then
    invalid_arg "Eval.check_assignment: arity mismatch";
  List.for_all (conjunct_holds run assignment) (Forbidden.conjuncts p)
  && List.for_all (guard_holds run assignment) (Forbidden.guards p)

(* ------------------------------------------------------------------ *)
(* Reference interpreter.                                             *)
(* ------------------------------------------------------------------ *)

(* Index conjuncts and guards by the highest variable they mention, so each
   is checked as soon as its last variable is assigned. *)
let stage_by_max_var p =
  let m = Forbidden.nvars p in
  let conj_at = Array.make (max m 1) [] in
  let guard_at = Array.make (max m 1) [] in
  List.iter
    (fun (c : Term.conjunct) ->
      let v = max c.before.var c.after.var in
      conj_at.(v) <- c :: conj_at.(v))
    (Forbidden.conjuncts p);
  List.iter
    (fun (g : Term.guard) ->
      let v =
        match g with
        | Term.Same_src (x, y) | Term.Same_dst (x, y) -> max x y
        | Term.Color_is (x, _) -> x
      in
      guard_at.(v) <- g :: guard_at.(v))
    (Forbidden.guards p);
  (conj_at, guard_at)

let search_ref ?(distinct = true) ?(limit = max_int) p run =
  let m = Forbidden.nvars p in
  let n = Run.Abstract.nmsgs run in
  if m = 0 then [ [||] ] (* empty conjunction: trivially true *)
  else if n = 0 || (distinct && n < m) then []
  else begin
    let conj_at, guard_at = stage_by_max_var p in
    let assignment = Array.make m (-1) in
    let used = Array.make n false in
    let results = ref [] in
    let count = ref 0 in
    let exception Done in
    let rec assign v =
      if v = m then begin
        incr count;
        results := Array.copy assignment :: !results;
        if !count >= limit then raise Done
      end
      else
        for msg = 0 to n - 1 do
          if not (distinct && used.(msg)) then begin
            assignment.(v) <- msg;
            used.(msg) <- true;
            let ok =
              List.for_all (conjunct_holds run assignment) conj_at.(v)
              && List.for_all (guard_holds run assignment) guard_at.(v)
            in
            if ok then assign (v + 1);
            used.(msg) <- false
          end
        done
    in
    (try assign 0 with Done -> ());
    List.rev !results
  end

let find_match_ref ?distinct p run =
  match search_ref ?distinct ~limit:1 p run with
  | a :: _ -> Some a
  | [] -> None

let find_matches_ref ?distinct ?(limit = 1000) p run =
  search_ref ?distinct ~limit p run

let holds_ref ?distinct p run = Option.is_some (find_match_ref ?distinct p run)

let satisfies_ref ?distinct p run = not (holds_ref ?distinct p run)

(* ------------------------------------------------------------------ *)
(* Compiled evaluator.                                                *)
(*                                                                    *)
(* A predicate compiles once into staged matching plans over the      *)
(* eight relation sections of Run.Abstract.masks. At each stage the   *)
(* candidate set for the stage's variable starts as the live messages *)
(* (minus used messages under distinctness) and is narrowed by        *)
(* intersecting one row per binary conjunct linking it to an          *)
(* already-bound variable; only same-variable conjuncts and guards    *)
(* remain as per-candidate scalar checks. Two plans are kept:         *)
(*                                                                    *)
(* - [lex]: identity variable order. Pruning only removes candidates  *)
(*   the reference interpreter would reject at the same stage, so     *)
(*   matches stream out in exactly the reference's lexicographic      *)
(*   order — find_match/find_matches stay byte-identical.             *)
(* - [fast]: most-constrained-variable-first order (greedy: most      *)
(*   conjunct links to already-ordered variables, then highest        *)
(*   degree). Used for the boolean queries, where only existence      *)
(*   matters and tighter early stages prune best.                     *)
(* ------------------------------------------------------------------ *)

(* the section of Run.Abstract.masks for [x.b ▷ y.a]: its row x holds
   those y. The transposed section, whose row y holds those x, is 4
   further on. *)
let section (b : Event.point) (a : Event.point) =
  match (b, a) with
  | Event.S, Event.S -> 0
  | Event.S, Event.R -> 1
  | Event.R, Event.S -> 2
  | Event.R, Event.R -> 3

type cstage = {
  var : int;
  bound : int array; (* per binary conjunct: the variable bound before *)
  secs : int array; (* and the section whose row at its message narrows *)
  diag : int array;
      (* same-variable conjuncts: sections whose row c must hold bit c *)
  sguards : Term.guard array; (* guards whose last variable is this one *)
}

type compiled = {
  pred : Forbidden.t;
  m : int;
  lex : cstage array;
  fast : cstage array;
}

let build_stages p order =
  let m = Forbidden.nvars p in
  let pos_of = Array.make m 0 in
  Array.iteri (fun i v -> pos_of.(v) <- i) order;
  let rows = Array.make m [] in
  let diag = Array.make m [] in
  let sguards = Array.make m [] in
  List.iter
    (fun (c : Term.conjunct) ->
      let b = c.before.var and a = c.after.var in
      let k = section c.before.point c.after.point in
      if b = a then diag.(pos_of.(b)) <- k :: diag.(pos_of.(b))
      else if pos_of.(b) < pos_of.(a) then
        (* [before] is bound when [after] is being chosen: candidates y
           with b_msg.point ▷ y.point' are a forward row at b's message *)
        rows.(pos_of.(a)) <- (b, k) :: rows.(pos_of.(a))
      else
        (* [after] is bound first: candidates x with x.point ▷ a_msg.point'
           are a transposed row at a's message *)
        rows.(pos_of.(b)) <- (a, k + 4) :: rows.(pos_of.(b)))
    (Forbidden.conjuncts p);
  List.iter
    (fun (g : Term.guard) ->
      let pos =
        match g with
        | Term.Same_src (x, y) | Term.Same_dst (x, y) ->
            max pos_of.(x) pos_of.(y)
        | Term.Color_is (x, _) -> pos_of.(x)
      in
      sguards.(pos) <- g :: sguards.(pos))
    (Forbidden.guards p);
  Array.init m (fun i ->
      let rows = Array.of_list (List.rev rows.(i)) in
      {
        var = order.(i);
        bound = Array.map fst rows;
        secs = Array.map snd rows;
        diag = Array.of_list (List.rev diag.(i));
        sguards = Array.of_list (List.rev sguards.(i));
      })

(* Greedy most-constrained-first: repeatedly pick the unordered variable
   with the most conjunct links to already-ordered ones; ties go to the
   higher total conjunct degree, then the higher index (determinism: the
   scan runs from the last variable down and keeps the first best). *)
let constrained_order p =
  let m = Forbidden.nvars p in
  let degree = Array.make m 0 in
  let links = Array.make m [] in
  List.iter
    (fun (c : Term.conjunct) ->
      let b = c.before.var and a = c.after.var in
      degree.(b) <- degree.(b) + 1;
      if a <> b then begin
        degree.(a) <- degree.(a) + 1;
        links.(b) <- a :: links.(b);
        links.(a) <- b :: links.(a)
      end)
    (Forbidden.conjuncts p);
  let placed = Array.make m false in
  let bound_links = Array.make m 0 in
  Array.init m (fun _ ->
      let best = ref (-1) in
      for v = m - 1 downto 0 do
        if not placed.(v) then
          if
            !best < 0
            || bound_links.(v) > bound_links.(!best)
            || (bound_links.(v) = bound_links.(!best)
               && degree.(v) > degree.(!best))
          then best := v
      done;
      let v = !best in
      placed.(v) <- true;
      List.iter
        (fun w -> if not placed.(w) then bound_links.(w) <- bound_links.(w) + 1)
        links.(v);
      v)

let compile p =
  let m = Forbidden.nvars p in
  let identity = Array.init m Fun.id in
  {
    pred = p;
    m;
    lex = build_stages p identity;
    fast = build_stages p (constrained_order p);
  }

let predicate c = c.pred

(* Attribute guards over int columns: [-1] means unknown, and an unknown
   attribute satisfies no guard (see Run.attr_table). *)
let rec guards_ok ~srcs ~dsts ~colors a (gs : Term.guard array) j =
  j = Array.length gs
  || (match gs.(j) with
     | Term.Same_src (x, y) ->
         let s = srcs.(a.(x)) in
         s >= 0 && s = srcs.(a.(y))
     | Term.Same_dst (x, y) ->
         let d = dsts.(a.(x)) in
         d >= 0 && d = dsts.(a.(y))
     | Term.Color_is (x, c) -> colors.(a.(x)) = c)
     && guards_ok ~srcs ~dsts ~colors a gs (j + 1)

(* What one packed search reads: the relation rows ([stride] per
   section, in Run.Abstract.masks order), the live messages, the
   attribute columns, and the assignment it fills in. A run query builds
   one; a monitor matcher keeps one and rebinds it per query. *)
type packed = {
  mutable masks : int array;
  mutable stride : int;
  mutable live : int;
  mutable srcs : int array;
  mutable dsts : int array;
  mutable colors : int array;
  assignment : int array;
}

(* a same-variable conjunct is one bit test of the matrix diagonal *)
let rec diag_rows masks stride c (diag : int array) j =
  j = Array.length diag
  || masks.((diag.(j) * stride) + c) land (1 lsl c) <> 0
     && diag_rows masks stride c diag (j + 1)

(* The staged matcher over packed int-mask rows — runs of ≤ 62 messages
   (everything the enumeration kernel emits) and the streaming monitor's
   frontier alike. Candidate and used sets are single ints, candidates
   are walked ascending by lowest set bit, and a self-conjunct is one bit
   test of the matrix diagonal — crucially {e not} an event-level [lt]
   query, which would force the lazy poset of a mask-built run. [emit]
   sees each full assignment (indexed by variable, not stage) and returns
   [true] to keep searching; the result is [true] once it has stopped
   the search. Nothing here allocates: this is the per-event hot path of
   [Pmon.check] (B15 holds it to >= 1M events/sec) and the per-leaf one
   of the quotiented model check. *)
let rec stage p plan ~distinct ~emit i used =
  if i = Array.length plan then not (emit p.assignment)
  else begin
    let st = plan.(i) in
    let cand = ref (if distinct then p.live land lnot used else p.live) in
    for r = 0 to Array.length st.bound - 1 do
      cand :=
        !cand
        land p.masks.((st.secs.(r) * p.stride) + p.assignment.(st.bound.(r)))
    done;
    candidates p plan ~distinct ~emit i used st !cand
  end

and candidates p plan ~distinct ~emit i used st cand =
  cand <> 0
  &&
  let c = Bitset.lowest_bit cand in
  p.assignment.(st.var) <- c;
  (diag_rows p.masks p.stride c st.diag 0
  && guards_ok ~srcs:p.srcs ~dsts:p.dsts ~colors:p.colors p.assignment
       st.sguards 0
  && stage p plan ~distinct ~emit (i + 1)
       (if distinct then used lor (1 lsl c) else used))
  || candidates p plan ~distinct ~emit i used st (cand land (cand - 1))

let stop _ = false

(* [guards_ok] for the pair loop below, with no assignment: its first
   variable [v0] is at message [x], its second at [y] (a first-stage
   guard reads only [v0]'s message). *)
let rec pair_guards ~srcs ~dsts ~colors v0 x y (gs : Term.guard array) j =
  j = Array.length gs
  || (match gs.(j) with
     | Term.Same_src (u, v) ->
         let s = srcs.(if u = v0 then x else y) in
         s >= 0 && s = srcs.(if v = v0 then x else y)
     | Term.Same_dst (u, v) ->
         let d = dsts.(if u = v0 then x else y) in
         d >= 0 && d = dsts.(if v = v0 then x else y)
     | Term.Color_is (u, c) -> colors.(if u = v0 then x else y) = c)
     && pair_guards ~srcs ~dsts ~colors v0 x y gs (j + 1)

(* A two-variable plan — every Lemma 3.2/3.3 form, causal_b2, fifo and
   crown-2 — as one flat loop: each candidate [x] of the first variable
   costs one intersection of the second variable's rows at [x], then a
   scan of what is left. The candidates are visited in [stage]'s order,
   so the first match is the one [stage] stops at. It is returned as
   [x lsl 6 lor y] (both below 62), or -1 for none: with no assignment,
   no emit callback and no recursion per stage, a run query allocates
   nothing, and this is the quotiented walk's per-leaf evaluation. *)
let pair plan ~distinct ~masks ~stride ~live ~srcs ~dsts ~colors =
  let s0 = plan.(0) and s1 = plan.(1) in
  let v0 = s0.var in
  let c0 = ref live and hit = ref (-1) in
  while !hit < 0 && !c0 <> 0 do
    let x = Bitset.lowest_bit !c0 in
    if
      diag_rows masks stride x s0.diag 0
      && pair_guards ~srcs ~dsts ~colors v0 x x s0.sguards 0
    then begin
      let c1 = ref (if distinct then live land lnot (1 lsl x) else live) in
      for r = 0 to Array.length s1.secs - 1 do
        c1 := !c1 land masks.((s1.secs.(r) * stride) + x)
      done;
      while !hit < 0 && !c1 <> 0 do
        let y = Bitset.lowest_bit !c1 in
        if
          diag_rows masks stride y s1.diag 0
          && pair_guards ~srcs ~dsts ~colors v0 x y s1.sguards 0
        then hit := (x lsl 6) lor y;
        c1 := !c1 land (!c1 - 1)
      done
    end;
    c0 := !c0 land (!c0 - 1)
  done;
  !hit

(* Is there a match? The pair loop for two variables, else the staged
   search stopped at its first match; either way the match is left in
   the assignment. *)
let exists p plan ~distinct =
  if Array.length plan = 2 then begin
    let hit =
      pair plan ~distinct ~masks:p.masks ~stride:p.stride ~live:p.live
        ~srcs:p.srcs ~dsts:p.dsts ~colors:p.colors
    in
    if hit >= 0 then begin
      p.assignment.(plan.(0).var) <- hit lsr 6;
      p.assignment.(plan.(1).var) <- hit land 63
    end;
    hit >= 0
  end
  else stage p plan ~distinct ~emit:stop 0 0

(* What one wide search reads: the Bitset rows ([n] per section, [n]
   the capacity of [wlive]), the live messages, the attribute columns
   and the assignment, plus its scratch — stage [i]'s candidates in
   [wcands.(i)] and the messages assigned so far in [wused], which is
   empty between searches. A run query builds one; a monitor matcher
   keeps one and rebinds it per query. *)
type wide = {
  mutable wrel : Bitset.t array;
  mutable wlive : Bitset.t;
  mutable wsrcs : int array;
  mutable wdsts : int array;
  mutable wcolors : int array;
  wcands : Bitset.t array;
  wused : Bitset.t;
  wassignment : int array;
}

let wide_search ~stages ~n assignment =
  {
    wrel = [||];
    wlive = Bitset.create n;
    wsrcs = [||];
    wdsts = [||];
    wcolors = [||];
    wcands = Array.init stages (fun _ -> Bitset.create n);
    wused = Bitset.create n;
    wassignment = assignment;
  }

let rec diag_wide w c (diag : int array) j =
  j = Array.length diag
  || Bitset.mem w.wrel.((diag.(j) * Bitset.capacity w.wlive) + c) c
     && diag_wide w c diag (j + 1)

(* The same staged search over Bitset rows, for runs too large for
   packed masks and wide monitor windows. Candidates are walked in
   ascending order by {!Bitset.next}, and the scratch is the record's,
   so a search allocates nothing. *)
let rec wide_stage w plan ~distinct ~emit i =
  if i = Array.length plan then not (emit w.wassignment)
  else begin
    let st = plan.(i) and n = Bitset.capacity w.wlive in
    let cand = w.wcands.(i) in
    Bitset.copy_into ~dst:cand w.wlive;
    if distinct then Bitset.diff_into ~dst:cand w.wused;
    for r = 0 to Array.length st.bound - 1 do
      Bitset.inter_into ~dst:cand
        w.wrel.((st.secs.(r) * n) + w.wassignment.(st.bound.(r)))
    done;
    wide_candidates w plan ~distinct ~emit i st (Bitset.next cand 0)
  end

and wide_candidates w plan ~distinct ~emit i st c =
  c < Bitset.capacity w.wlive
  && begin
       w.wassignment.(st.var) <- c;
       (diag_wide w c st.diag 0
       && guards_ok ~srcs:w.wsrcs ~dsts:w.wdsts ~colors:w.wcolors
            w.wassignment st.sguards 0
       && begin
            if distinct then Bitset.add w.wused c;
            let stopped = wide_stage w plan ~distinct ~emit (i + 1) in
            if distinct then Bitset.remove w.wused c;
            stopped
          end)
       || wide_candidates w plan ~distinct ~emit i st
            (Bitset.next w.wcands.(i) (c + 1))
     end

(* One run: its own packed rows when it has them, else its Bitset view.
   With no [emit] the query only asks whether a match exists. *)
let run_plan plan ~distinct run emit =
  let n = Run.Abstract.nmsgs run and m = Array.length plan in
  if distinct && n < m then false
  else
    let t = Run.Abstract.attr_table run in
    match (Run.Abstract.masks run, emit) with
    | Some masks, None when m = 2 ->
        pair plan ~distinct ~masks ~stride:n ~live:((1 lsl n) - 1)
          ~srcs:t.srcs ~dsts:t.dsts ~colors:t.colors
        >= 0
    | Some masks, _ ->
        stage
          {
            masks;
            stride = n;
            live = (1 lsl n) - 1;
            srcs = t.srcs;
            dsts = t.dsts;
            colors = t.colors;
            assignment = Array.make m (-1);
          }
          plan ~distinct
          ~emit:(Option.value emit ~default:stop)
          0 0
    | None, _ ->
        let (r : Run.Abstract.relations) = Run.Abstract.relations run in
        let rel =
          Array.concat
            [ r.ss; r.sr; r.rs; r.rr; r.ss_t; r.sr_t; r.rs_t; r.rr_t ]
        in
        let w = wide_search ~stages:m ~n (Array.make m (-1)) in
        Bitset.set_all w.wlive;
        w.wrel <- rel;
        w.wsrcs <- t.srcs;
        w.wdsts <- t.dsts;
        w.wcolors <- t.colors;
        wide_stage w plan ~distinct
          ~emit:(Option.value emit ~default:stop)
          0

let search_compiled ?(distinct = true) ?(limit = max_int) c run =
  let results = ref [] in
  let count = ref 0 in
  ignore
    (run_plan c.lex ~distinct run
       (Some
          (fun a ->
            incr count;
            results := Array.copy a :: !results;
            !count < limit)));
  List.rev !results

let find_match_c ?distinct c run =
  match search_compiled ?distinct ~limit:1 c run with
  | a :: _ -> Some a
  | [] -> None

let find_matches_c ?distinct ?(limit = 1000) c run =
  search_compiled ?distinct ~limit c run

let holds_c ?(distinct = true) c run = run_plan c.fast ~distinct run None

let satisfies_c ?distinct c run = not (holds_c ?distinct c run)

(* ------------------------------------------------------------------ *)
(* Default entry points: compile-and-go fast path.                    *)
(* ------------------------------------------------------------------ *)

let find_match ?distinct p run = find_match_c ?distinct (compile p) run

let find_matches ?distinct ?limit p run =
  find_matches_c ?distinct ?limit (compile p) run

let holds ?distinct p run = holds_c ?distinct (compile p) run

let satisfies ?distinct p run = satisfies_c ?distinct (compile p) run

(* ------------------------------------------------------------------ *)
(* Matching directly over raw mask rows.                              *)
(* ------------------------------------------------------------------ *)

module Masked = struct
  type matcher = {
    c : compiled;
    distinct : bool;
    p : packed;
    mutable w : wide option; (* built at the first wide match *)
  }

  let make ?(distinct = true) c =
    {
      c;
      distinct;
      p =
        {
          masks = [||];
          stride = 0;
          live = 0;
          srcs = [||];
          dsts = [||];
          colors = [||];
          assignment = Array.make (max c.m 1) (-1);
        };
      w = None;
    }

  (* the monitor's frontier ({!Mo_order.Monitor}) is matched in place,
     between events: rebinding the matcher's search state writes fields,
     it allocates nothing *)
  let holds u ~n ~live ~masks ~src ~dst ~color =
    let p = u.p in
    p.masks <- masks;
    p.stride <- n;
    p.live <- live;
    p.srcs <- src;
    p.dsts <- dst;
    p.colors <- color;
    exists p u.c.fast ~distinct:u.distinct

  (* a stopped search leaves its match in the assignment *)
  let find u ~n ~live ~masks ~src ~dst ~color =
    if holds u ~n ~live ~masks ~src ~dst ~color then
      Some (Array.copy u.p.assignment)
    else None

  (* the wide twin: its scratch is built again only when the window
     changes *)
  let holds_wide u ~n ~live ~rel ~src ~dst ~color =
    let w =
      match u.w with
      | Some w when Bitset.capacity w.wlive = n -> w
      | _ ->
          let w =
            wide_search ~stages:(Array.length u.c.fast) ~n u.p.assignment
          in
          u.w <- Some w;
          w
    in
    w.wrel <- rel;
    w.wlive <- live;
    w.wsrcs <- src;
    w.wdsts <- dst;
    w.wcolors <- color;
    wide_stage w u.c.fast ~distinct:u.distinct ~emit:stop 0

  let find_wide u ~n ~live ~rel ~src ~dst ~color =
    if holds_wide u ~n ~live ~rel ~src ~dst ~color then
      Some (Array.copy u.p.assignment)
    else None
end
