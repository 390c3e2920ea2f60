type violation = {
  kind : [ `Fifo | `Causal ];
  earlier : int;
  later : int;
  at : int;
  channel : int * int;
}

type msg_state = {
  mutable sent : bool;
  mutable delivered : bool;
  mutable src : int;
  mutable dst : int;
  mutable seq : int; (* per-channel sequence number *)
  mutable stamp : int array; (* vector clock at send *)
  mutable send_past : Bitset.t option; (* messages causally before the send *)
}

type t = {
  nprocs : int;
  nmsgs : int;
  clocks : int array array; (* per-process vector clock *)
  past : Bitset.t array; (* per-process: messages in its causal past *)
  msgs : msg_state array;
  next_seq : (int * int, int) Hashtbl.t; (* channel -> next seqno *)
  chan_pending : (int * int, (int, int) Hashtbl.t) Hashtbl.t;
      (* channel -> (seq -> msg id) of sent-but-undelivered *)
  dst_pending : (int, unit) Hashtbl.t array; (* per dst: undelivered msg ids *)
  pred : Bitset.t array; (* per message: messages with an event before one of
                            its events; filled at delivery *)
  mutable events : int; (* stream position, for violation reports *)
}

let create ~nprocs ~nmsgs =
  if nprocs <= 0 || nmsgs < 0 then invalid_arg "Online.create";
  {
    nprocs;
    nmsgs;
    clocks = Array.init nprocs (fun _ -> Array.make nprocs 0);
    past = Array.init nprocs (fun _ -> Bitset.create nmsgs);
    msgs =
      Array.init nmsgs (fun _ ->
          {
            sent = false;
            delivered = false;
            src = -1;
            dst = -1;
            seq = -1;
            stamp = [||];
            send_past = None;
          });
    next_seq = Hashtbl.create 16;
    chan_pending = Hashtbl.create 16;
    dst_pending = Array.init nprocs (fun _ -> Hashtbl.create 16);
    pred = Array.init nmsgs (fun _ -> Bitset.create nmsgs);
    events = 0;
  }

let events t = t.events

let pending t =
  Array.fold_left (fun n h -> n + Hashtbl.length h) 0 t.dst_pending

let send t ~msg ~src ~dst =
  if msg < 0 || msg >= t.nmsgs then invalid_arg "Online.send: bad msg id";
  if src < 0 || src >= t.nprocs || dst < 0 || dst >= t.nprocs then
    invalid_arg "Online.send: bad process";
  let m = t.msgs.(msg) in
  if m.sent then invalid_arg "Online.send: duplicate send";
  m.sent <- true;
  m.src <- src;
  m.dst <- dst;
  (* channel sequence number *)
  let seq = Option.value ~default:0 (Hashtbl.find_opt t.next_seq (src, dst)) in
  Hashtbl.replace t.next_seq (src, dst) (seq + 1);
  m.seq <- seq;
  let chan =
    match Hashtbl.find_opt t.chan_pending (src, dst) with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 8 in
        Hashtbl.replace t.chan_pending (src, dst) h;
        h
  in
  Hashtbl.replace chan seq msg;
  Hashtbl.replace t.dst_pending.(dst) msg ();
  (* vector clock: the send is an event at src *)
  t.clocks.(src).(src) <- t.clocks.(src).(src) + 1;
  m.stamp <- Array.copy t.clocks.(src);
  (* causal past of the send, for the message graph *)
  m.send_past <- Some (Bitset.copy t.past.(src));
  Bitset.add t.past.(src) msg;
  t.events <- t.events + 1

let deliver t ~msg =
  if msg < 0 || msg >= t.nmsgs then invalid_arg "Online.deliver: bad msg id";
  let m = t.msgs.(msg) in
  if not m.sent then invalid_arg "Online.deliver: message not sent";
  if m.delivered then invalid_arg "Online.deliver: duplicate delivery";
  m.delivered <- true;
  let q = m.dst in
  let at = t.events and channel = (m.src, m.dst) in
  let violations = ref [] in
  (* FIFO: an undelivered same-channel message with a smaller seqno *)
  (match Hashtbl.find_opt t.chan_pending (m.src, m.dst) with
  | Some chan ->
      Hashtbl.iter
        (fun seq earlier ->
          if seq < m.seq then
            violations :=
              { kind = `Fifo; earlier; later = msg; at; channel }
              :: !violations)
        chan;
      Hashtbl.remove chan m.seq
  | None -> ());
  (* causal: an undelivered message to q whose send happened-before ours *)
  Hashtbl.remove t.dst_pending.(q) msg;
  Hashtbl.iter
    (fun earlier () ->
      let m' = t.msgs.(earlier) in
      if Vclock.lt_arrays m'.stamp m.stamp then
        violations :=
          { kind = `Causal; earlier; later = msg; at; channel }
          :: !violations)
    t.dst_pending.(q);
  (* message-graph predecessors: everything before this delivery *)
  Bitset.union_into ~dst:t.pred.(msg) t.past.(q);
  (match m.send_past with
  | Some p -> Bitset.union_into ~dst:t.pred.(msg) p
  | None -> ());
  Bitset.remove t.pred.(msg) msg;
  (* the delivery is an event at q: merge clocks and update the past *)
  let cq = t.clocks.(q) in
  Vclock.merge_into ~into:cq m.stamp;
  cq.(q) <- cq.(q) + 1;
  (match m.send_past with
  | Some p -> Bitset.union_into ~dst:t.past.(q) p
  | None -> ());
  Bitset.add t.past.(q) msg;
  t.events <- t.events + 1;
  List.rev !violations

let frontier_bytes t =
  let word = Sys.word_size / 8 in
  let bits = Sys.word_size - 2 in
  let bs_words = 1 + ((max t.nmsgs 1 + bits - 1) / bits) in
  let sent =
    Array.fold_left (fun n m -> if m.sent then n + 1 else n) 0 t.msgs
  in
  let words =
    (t.nprocs * t.nprocs) (* clocks *)
    + (t.nprocs * bs_words) (* pasts *)
    + (8 * t.nmsgs) (* msg records *)
    + (sent * (t.nprocs + bs_words)) (* stamps and send pasts *)
    + (t.nmsgs * bs_words) (* message-graph predecessors *)
    + (3 * Hashtbl.length t.next_seq)
    + Array.fold_left (fun n h -> n + (3 * Hashtbl.length h)) 0 t.dst_pending
  in
  word * words

(* the message graph's edges x → y are the bits x of pred.(y) *)
let finalize_sync t =
  Limits.numbering_or_crown t.nmsgs (fun x y -> Bitset.mem t.pred.(y) x)

let feed_run run =
  let nmsgs = Run.nmsgs run in
  let t = create ~nprocs:(Run.nprocs run) ~nmsgs in
  let violations = ref [] in
  List.iter
    (fun (e : Event.t) ->
      match e.point with
      | Event.S ->
          send t ~msg:e.msg ~src:(Run.msg_src run e.msg)
            ~dst:(Run.msg_dst run e.msg)
      | Event.R -> violations := !violations @ deliver t ~msg:e.msg)
    (Run.linearize run);
  (!violations, finalize_sync t)
