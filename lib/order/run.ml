type attrs = { src : int option; dst : int option; color : int option }

let no_attrs = { src = None; dst = None; color = None }

let attrs_known ~src ~dst ?color () =
  { src = Some src; dst = Some dst; color }

type attr_table = {
  records : attrs array;
  srcs : int array;
  dsts : int array;
  colors : int array;
}

let attr_table records =
  let col f = Array.map (fun a -> Option.value (f a) ~default:(-1)) records in
  {
    records;
    srcs = col (fun a -> a.src);
    dsts = col (fun a -> a.dst);
    colors = col (fun a -> a.color);
  }

module Abstract = struct
  type relations = {
    ss : Bitset.t array;
    sr : Bitset.t array;
    rs : Bitset.t array;
    rr : Bitset.t array;
    ss_t : Bitset.t array;
    sr_t : Bitset.t array;
    rs_t : Bitset.t array;
    rr_t : Bitset.t array;
  }

  type t = {
    nmsgs : int;
    po_l : Poset.t Lazy.t;
        (* lazy so the enumeration kernel can hand over only the packed
           closure masks; forced on the first event-level query *)
    attrs : attr_table;
    mutable rels : relations option; (* Bitset view, computed on first use *)
    mutable masks : int array option;
        (* packed relation rows: row x of relation k at index k*nmsgs + x,
           in the order ss sr rs rr ss_t sr_t rs_t rr_t. Only when
           nmsgs <= 62; computed on first use unless supplied by the
           enumeration kernel. *)
  }

  let create ~nmsgs ?attrs edges =
    let attrs =
      match attrs with
      | Some a ->
          if Array.length a <> nmsgs then
            invalid_arg "Run.Abstract.create: attrs length mismatch";
          a
      | None -> Array.make nmsgs no_attrs
    in
    let implicit =
      List.init nmsgs (fun m ->
          (Event.encode (Event.send m), Event.encode (Event.deliver m)))
    in
    let encoded =
      List.map (fun (h, g) -> (Event.encode h, Event.encode g)) edges
    in
    match Poset.of_edges (2 * nmsgs) (implicit @ encoded) with
    | None -> None
    | Some po ->
        Some
          {
            nmsgs;
            po_l = Lazy.from_val po;
            attrs = attr_table attrs;
            rels = None;
            masks = None;
          }

  let create_exn ~nmsgs ?attrs edges =
    match create ~nmsgs ?attrs edges with
    | Some t -> t
    | None -> invalid_arg "Run.Abstract.create_exn: not a partial order"

  let nmsgs t = t.nmsgs

  let attrs t m =
    if m < 0 || m >= t.nmsgs then invalid_arg "Run.Abstract.attrs";
    t.attrs.records.(m)

  let attr_table t = t.attrs

  let poset t = Lazy.force t.po_l

  (* capacity of the packed int-mask representation: one bit per message
     per row, so it carries runs of up to 62 messages (every enumerable
     universe; the bench harness's synthetic multi-thousand-message runs
     fall back to the Bitset view) *)
  let max_mask_msgs = 62

  (* De-interleave the event-level reachability rows into the four msg×msg
     endpoint relations (plus their transposes, sections 4-7). Even
     vertices are sends, odd ones deliveries (see Event.encode). *)
  let build_masks t =
    let n = t.nmsgs in
    let masks = Array.make (8 * n) 0 in
    let po = poset t in
    for u = 0 to (2 * n) - 1 do
      let x = u lsr 1 in
      let base = if u land 1 = 0 then 0 else 2 in
      Poset.iter_above po u (fun v ->
          let y = v lsr 1 in
          let k = base + (v land 1) in
          masks.((k * n) + x) <- masks.((k * n) + x) lor (1 lsl y);
          masks.(((k + 4) * n) + y) <-
            masks.(((k + 4) * n) + y) lor (1 lsl x))
    done;
    masks

  let masks t =
    match t.masks with
    | Some _ as m -> m
    | None ->
        if t.nmsgs > max_mask_msgs then None
        else begin
          let m = build_masks t in
          t.masks <- Some m;
          Some m
        end

  (* reconstruct the event-level order from the packed masks: the closure
     is already known, so the "generators" are the closure edges
     themselves (Poset only needs them acyclic, not reduced) *)
  let poset_of_masks ~nmsgs masks =
    let n2 = 2 * nmsgs in
    let succ = Array.make n2 [] in
    let reach = Array.init n2 (fun _ -> Bitset.create n2) in
    for u = 0 to n2 - 1 do
      let x = u lsr 1 in
      let base = if u land 1 = 0 then 0 else 2 in
      let sbits = masks.((base * nmsgs) + x)
      and rbits = masks.(((base + 1) * nmsgs) + x) in
      let row = reach.(u) in
      let out = ref [] in
      for y = nmsgs - 1 downto 0 do
        if rbits land (1 lsl y) <> 0 then begin
          Bitset.add row ((2 * y) + 1);
          out := ((2 * y) + 1) :: !out
        end;
        if sbits land (1 lsl y) <> 0 then begin
          Bitset.add row (2 * y);
          out := (2 * y) :: !out
        end
      done;
      succ.(u) <- !out
    done;
    Poset.of_closure_unchecked ~n:n2 ~succ ~reach

  (* Trusted constructor for the enumeration kernel: [masks] must be the
     packed relation rows of a complete run's order. The poset view is
     rebuilt lazily from the masks if ever queried. *)
  let of_masks ~nmsgs ~attrs masks =
    if nmsgs > max_mask_msgs then invalid_arg "Run.Abstract.of_masks: too big";
    if Array.length attrs.records <> nmsgs then
      invalid_arg "Run.Abstract.of_masks: attrs length mismatch";
    if Array.length masks <> 8 * nmsgs then
      invalid_arg "Run.Abstract.of_masks: masks length mismatch";
    {
      nmsgs;
      po_l = lazy (poset_of_masks ~nmsgs masks);
      attrs;
      rels = None;
      masks = Some masks;
    }

  let relations t =
    match t.rels with
    | Some r -> r
    | None ->
        let n = t.nmsgs in
        let r =
          match masks t with
          | Some mk ->
              let section k =
                Array.init n (fun x ->
                    let bits = mk.((k * n) + x) in
                    let row = Bitset.create n in
                    for y = 0 to n - 1 do
                      if bits land (1 lsl y) <> 0 then Bitset.add row y
                    done;
                    row)
              in
              {
                ss = section 0;
                sr = section 1;
                rs = section 2;
                rr = section 3;
                ss_t = section 4;
                sr_t = section 5;
                rs_t = section 6;
                rr_t = section 7;
              }
          | None ->
              (* > 62 messages: build the Bitset view off the poset *)
              let mk () = Array.init n (fun _ -> Bitset.create n) in
              let ss = mk ()
              and sr = mk ()
              and rs = mk ()
              and rr = mk ()
              and ss_t = mk ()
              and sr_t = mk ()
              and rs_t = mk ()
              and rr_t = mk () in
              let po = poset t in
              for u = 0 to (2 * n) - 1 do
                let x = u lsr 1 in
                let u_send = u land 1 = 0 in
                Poset.iter_above po u (fun v ->
                    let y = v lsr 1 in
                    match (u_send, v land 1 = 0) with
                    | true, true ->
                        Bitset.add ss.(x) y;
                        Bitset.add ss_t.(y) x
                    | true, false ->
                        Bitset.add sr.(x) y;
                        Bitset.add sr_t.(y) x
                    | false, true ->
                        Bitset.add rs.(x) y;
                        Bitset.add rs_t.(y) x
                    | false, false ->
                        Bitset.add rr.(x) y;
                        Bitset.add rr_t.(y) x)
              done;
              { ss; sr; rs; rr; ss_t; sr_t; rs_t; rr_t }
        in
        t.rels <- Some r;
        r

  let lt t h g = Poset.lt (poset t) (Event.encode h) (Event.encode g)

  let concurrent t h g =
    Poset.concurrent (poset t) (Event.encode h) (Event.encode g)

  let message_graph t =
    let acc = ref [] in
    for x = 0 to t.nmsgs - 1 do
      for y = 0 to t.nmsgs - 1 do
        if x <> y then
          let precedes =
            List.exists
              (fun (h, f) -> lt t h f)
              [
                (Event.send x, Event.send y);
                (Event.send x, Event.deliver y);
                (Event.deliver x, Event.send y);
                (Event.deliver x, Event.deliver y);
              ]
          in
          if precedes then acc := (x, y) :: !acc
      done
    done;
    List.rev !acc

  let events t =
    List.init (2 * t.nmsgs) Event.decode

  let attrs_equal a b = a.src = b.src && a.dst = b.dst && a.color = b.color

  let equal a b =
    a.nmsgs = b.nmsgs
    && Poset.relation_equal (poset a) (poset b)
    && Array.for_all2 attrs_equal a.attrs.records b.attrs.records

  let pp ppf t =
    Format.fprintf ppf "@[<v>run(%d msgs):" t.nmsgs;
    List.iter
      (fun (h, g) ->
        Format.fprintf ppf "@ %a -> %a" Event.pp (Event.decode h) Event.pp
          (Event.decode g))
      (Poset.covers (poset t));
    Format.fprintf ppf "@]"
end

type t = {
  nprocs : int;
  msgs : (int * int) array;
  colors : int option array;
  seq : Event.t list array;
  po : Poset.t;
}

type schedule_entry = Do_send of int | Do_deliver of int

let validate_placement ~nprocs ~msgs seq =
  let nmsgs = Array.length msgs in
  let seen = Array.make (2 * nmsgs) false in
  let err = ref None in
  let set_err s = if !err = None then err := Some s in
  Array.iteri
    (fun p events ->
      List.iter
        (fun (e : Event.t) ->
          if e.msg < 0 || e.msg >= nmsgs then
            set_err (Printf.sprintf "event of unknown message %d" e.msg)
          else begin
            let src, dst = msgs.(e.msg) in
            (match e.point with
            | Event.S ->
                if p <> src then
                  set_err
                    (Printf.sprintf "x%d.s on process %d, expected src %d"
                       e.msg p src)
            | Event.R ->
                if p <> dst then
                  set_err
                    (Printf.sprintf "x%d.r on process %d, expected dst %d"
                       e.msg p dst));
            let i = Event.encode e in
            if seen.(i) then
              set_err (Format.asprintf "duplicate event %a" Event.pp e)
            else seen.(i) <- true
          end)
        events)
    seq;
  Array.iteri
    (fun i (src, dst) ->
      if src < 0 || src >= nprocs || dst < 0 || dst >= nprocs then
        set_err (Printf.sprintf "message %d has endpoint out of range" i);
      if not seen.(Event.encode (Event.send i)) then
        set_err (Printf.sprintf "x%d.s missing (incomplete run)" i);
      if not seen.(Event.encode (Event.deliver i)) then
        set_err (Printf.sprintf "x%d.r missing (incomplete run)" i))
    msgs;
  !err

let build_poset ~msgs seq =
  let nmsgs = Array.length msgs in
  let edges = ref [] in
  Array.iter
    (fun events ->
      let rec chain = function
        | a :: (b :: _ as rest) ->
            edges := (Event.encode a, Event.encode b) :: !edges;
            chain rest
        | [ _ ] | [] -> ()
      in
      chain events)
    seq;
  for m = 0 to nmsgs - 1 do
    edges :=
      (Event.encode (Event.send m), Event.encode (Event.deliver m)) :: !edges
  done;
  Poset.of_edges (2 * nmsgs) !edges

let of_sequences ~nprocs ~msgs ?colors seq =
  if Array.length seq <> nprocs then
    invalid_arg "Run.of_sequences: sequence array length <> nprocs";
  let colors =
    match colors with
    | Some c ->
        if Array.length c <> Array.length msgs then
          invalid_arg "Run.of_sequences: colors length mismatch";
        c
    | None -> Array.make (Array.length msgs) None
  in
  match validate_placement ~nprocs ~msgs seq with
  | Some e -> Error e
  | None -> (
      match build_poset ~msgs seq with
      | None -> Error "process sequences induce a cyclic order"
      | Some po -> Ok { nprocs; msgs; colors; seq; po })

let of_enumeration ~nprocs ~msgs ?colors ~po seq =
  let colors =
    match colors with
    | Some c ->
        if Array.length c <> Array.length msgs then
          invalid_arg "Run.of_enumeration: colors length mismatch";
        c
    | None -> Array.make (Array.length msgs) None
  in
  if Array.length seq <> nprocs then
    invalid_arg "Run.of_enumeration: sequence array length <> nprocs";
  if Poset.size po <> 2 * Array.length msgs then
    invalid_arg "Run.of_enumeration: poset size <> 2 * nmsgs";
  { nprocs; msgs; colors; seq; po }

let of_schedule ~nprocs ~msgs ?colors sched =
  let nmsgs = Array.length msgs in
  let sent = Array.make nmsgs false in
  let seq_rev = Array.make nprocs [] in
  let err = ref None in
  List.iter
    (fun entry ->
      if !err = None then
        match entry with
        | Do_send m ->
            if m < 0 || m >= nmsgs then
              err := Some (Printf.sprintf "send of unknown message %d" m)
            else begin
              sent.(m) <- true;
              let src, _ = msgs.(m) in
              seq_rev.(src) <- Event.send m :: seq_rev.(src)
            end
        | Do_deliver m ->
            if m < 0 || m >= nmsgs then
              err := Some (Printf.sprintf "deliver of unknown message %d" m)
            else if not sent.(m) then
              err :=
                Some
                  (Printf.sprintf "x%d.r scheduled before x%d.s (spurious)" m
                     m)
            else
              let _, dst = msgs.(m) in
              seq_rev.(dst) <- Event.deliver m :: seq_rev.(dst))
    sched;
  match !err with
  | Some e -> Error e
  | None ->
      of_sequences ~nprocs ~msgs ?colors (Array.map List.rev seq_rev)

let nprocs t = t.nprocs

let nmsgs t = Array.length t.msgs

let msg_src t m = fst t.msgs.(m)

let msg_dst t m = snd t.msgs.(m)

let msg_color t m = t.colors.(m)

let sequence t i =
  if i < 0 || i >= t.nprocs then invalid_arg "Run.sequence";
  t.seq.(i)

let lt t h g = Poset.lt t.po (Event.encode h) (Event.encode g)

let concurrent t h g = Poset.concurrent t.po (Event.encode h) (Event.encode g)

let to_abstract t =
  let nmsgs = Array.length t.msgs in
  let attrs =
    Array.init nmsgs (fun m ->
        let src, dst = t.msgs.(m) in
        { src = Some src; dst = Some dst; color = t.colors.(m) })
  in
  (* the concrete order already lives on Event.encode'd vertices and
     includes every x.s ▷ x.r edge, so the abstract view can share the
     poset instead of rebuilding its closure *)
  {
    Abstract.nmsgs;
    po_l = Lazy.from_val t.po;
    attrs = attr_table attrs;
    rels = None;
    masks = None;
  }

let linearize t =
  let cursors = Array.copy t.seq in
  let sent = Array.make (Array.length t.msgs) false in
  let out = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iteri
      (fun p events ->
        match events with
        | (e : Event.t) :: rest -> (
            match e.point with
            | Event.S ->
                sent.(e.msg) <- true;
                out := e :: !out;
                cursors.(p) <- rest;
                progress := true
            | Event.R ->
                if sent.(e.msg) then begin
                  out := e :: !out;
                  cursors.(p) <- rest;
                  progress := true
                end)
        | [] -> ())
      cursors
  done;
  (* a valid run always drains: every delivery's send is in some sequence *)
  assert (Array.for_all (fun c -> c = []) cursors);
  List.rev !out

let linearize_random t ~seed =
  let rng = Random.State.make [| 0x6d6f6c72; seed |] in
  let cursors = Array.copy t.seq in
  let sent = Array.make (Array.length t.msgs) false in
  let total = Array.fold_left (fun n l -> n + List.length l) 0 t.seq in
  let enabled = Array.make (max t.nprocs 1) 0 in
  let out = ref [] in
  for _ = 1 to total do
    let n = ref 0 in
    Array.iteri
      (fun p events ->
        match events with
        | ({ point = Event.S; _ } : Event.t) :: _ ->
            enabled.(!n) <- p;
            incr n
        | { point = Event.R; msg } :: _ when sent.(msg) ->
            enabled.(!n) <- p;
            incr n
        | _ -> ())
      cursors;
    (* a valid run always has an enabled event until it drains *)
    assert (!n > 0);
    let p = enabled.(Random.State.int rng !n) in
    match cursors.(p) with
    | [] -> assert false
    | (e : Event.t) :: rest ->
        if e.point = Event.S then sent.(e.msg) <- true;
        out := e :: !out;
        cursors.(p) <- rest
  done;
  List.rev !out

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun p events ->
      Format.fprintf ppf "P%d: @[<h>%a@]@ " p
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
           Event.pp)
        events)
    t.seq;
  Format.fprintf ppf "@]"
