type model =
  | Rsc
  | Ksync of int
  | Fifo_nn
  | Causal
  | Fifo_1n
  | Fifo_n1
  | Fifo_11
  | Async

type violation = Limits.violation = { cycle : int list; reason : string }

let norm = function
  | Ksync k when k < 1 -> invalid_arg "Lattice: Ksync k requires k >= 1"
  | Ksync 1 -> Rsc
  | m -> m

let to_string = function
  | Rsc -> "rsc"
  | Ksync k -> "ksync" ^ string_of_int k
  | Fifo_nn -> "fifo-nn"
  | Causal -> "causal"
  | Fifo_1n -> "fifo-1n"
  | Fifo_n1 -> "fifo-n1"
  | Fifo_11 -> "fifo-11"
  | Async -> "async"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "rsc" | "sync" -> Some Rsc
  | "fifo-nn" | "fifo_nn" | "fifonn" -> Some Fifo_nn
  | "causal" | "co" -> Some Causal
  | "fifo-1n" | "fifo_1n" | "fifo1n" | "mailbox" -> Some Fifo_1n
  | "fifo-n1" | "fifo_n1" | "fifon1" -> Some Fifo_n1
  | "fifo-11" | "fifo_11" | "fifo11" -> Some Fifo_11
  | "async" -> Some Async
  | s when String.length s > 5 && String.sub s 0 5 = "ksync" -> (
      match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
      | Some k when k >= 1 -> Some (Ksync k)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Membership: every point is one of the three Limits kernels         *)
(* ------------------------------------------------------------------ *)

let max_scc = Limits.max_scc

let is_member m r =
  match norm m with
  | Rsc -> Limits.is_sync r
  | Ksync k -> Limits.max_scc r <= k
  | Fifo_nn -> Limits.(acyclic One_queue r)
  | Causal -> Limits.is_causal r
  | Fifo_1n -> Limits.(no_overtake Same_src r)
  | Fifo_n1 -> Limits.(no_overtake Same_dst r)
  | Fifo_11 -> Limits.(no_overtake Same_channel r)
  | Async -> true

(* The witness-producing references: the Limits ones, and a
   reachability DFS per message for Ksync. *)
let check m r =
  match norm m with
  | Async -> Ok ()
  | Rsc -> Result.map ignore (Limits.check_sync r)
  | Fifo_nn -> Result.map ignore Limits.(check_acyclic One_queue r)
  | Causal -> Limits.check_causal r
  | Fifo_1n -> Limits.(check_overtake Same_src r)
  | Fifo_n1 -> Limits.(check_overtake Same_dst r)
  | Fifo_11 -> Limits.(check_overtake Same_channel r)
  | Ksync k ->
      let n = Run.Abstract.nmsgs r in
      let succ = Array.make n [] in
      List.iter
        (fun (x, y) -> succ.(x) <- y :: succ.(x))
        (Run.Abstract.message_graph r);
      let reach =
        Array.init n (fun s ->
            let seen = Array.make n false in
            let rec dfs x =
              List.iter
                (fun y ->
                  if not seen.(y) then begin
                    seen.(y) <- true;
                    dfs y
                  end)
                succ.(x)
            in
            dfs s;
            seen)
      in
      let best = ref [] and best_len = ref 0 in
      for x = 0 to n - 1 do
        let scc = ref [] and len = ref 0 in
        for y = n - 1 downto 0 do
          if y = x || (reach.(x).(y) && reach.(y).(x)) then begin
            scc := y :: !scc;
            incr len
          end
        done;
        if !len > !best_len then begin
          best := !scc;
          best_len := !len
        end
      done;
      if !best_len <= k then Ok ()
      else
        Error
          {
            cycle = !best;
            reason =
              Printf.sprintf
                "message graph has a strongly connected component of %d \
                 messages > k = %d"
                !best_len k;
          }

(* ------------------------------------------------------------------ *)
(* The order, as data                                                 *)
(* ------------------------------------------------------------------ *)

let equal a b = norm a = norm b

let leq a b =
  let a = norm a and b = norm b in
  if a = b then true
  else
    match (a, b) with
    | Rsc, _ -> true
    | _, Async -> true
    | Async, _ | _, Rsc -> false
    | Ksync j, Ksync k -> j <= k
    | Ksync _, _ | _, Ksync _ -> false
    | Fifo_nn, (Causal | Fifo_1n | Fifo_n1 | Fifo_11) -> true
    | Causal, (Fifo_1n | Fifo_n1 | Fifo_11) -> true
    | (Fifo_1n | Fifo_n1), Fifo_11 -> true
    | _ -> false

let join a b =
  let a = norm a and b = norm b in
  if leq a b then b
  else if leq b a then a
  else
    match (a, b) with
    | Fifo_1n, Fifo_n1 | Fifo_n1, Fifo_1n -> Fifo_11
    | _ ->
        (* the only other incomparable pairs put Ksync k (k >= 2)
           against the FIFO/causal chain; no Ksync bound exists (crowns
           grow unboundedly within Causal), so the join is the top *)
        Async

let meet a b =
  let a = norm a and b = norm b in
  if leq a b then a
  else if leq b a then b
  else
    match (a, b) with
    | Fifo_1n, Fifo_n1 | Fifo_n1, Fifo_1n -> Causal
    | _ -> Rsc

let points ?(kmax = 3) () =
  let ks =
    if kmax < 2 then [] else List.init (kmax - 1) (fun i -> Ksync (i + 2))
  in
  (Rsc :: ks) @ [ Fifo_nn; Causal; Fifo_1n; Fifo_n1; Fifo_11; Async ]

let hasse ?(kmax = 3) () =
  let pts = points ~kmax () in
  let strict a b = leq a b && not (leq b a) in
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b ->
          if
            strict a b
            && not (List.exists (fun c -> strict a c && strict c b) pts)
          then Some (a, b)
          else None)
        pts)
    pts

let pp_violation = Limits.pp_violation
