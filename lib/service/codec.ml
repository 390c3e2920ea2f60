open Mo_core
module J = Mo_obs.Jsonb

type request =
  | Classify of Forbidden.t
  | Implies of Forbidden.t * Forbidden.t
  | Minimize of Forbidden.t list
  | Witness of Forbidden.t
  | Monitor of Forbidden.t * string * int option
  | Lattice of Forbidden.t * int option
  | Stats
  | Shutdown
  | Batch of envelope list

and envelope = { id : int; deadline_ms : int option; req : request }

exception Bad_request of string

let max_kmax = 64

(* ---- JSON helpers ------------------------------------------------ *)

let member key = function J.Obj fields -> List.assoc_opt key fields | _ -> None

let to_int = function J.Int i -> Some i | _ -> None

let to_str = function J.String s -> Some s | _ -> None

let parse_pred s =
  match Parse.predicate s with
  | Ok p -> Ok p
  | Error e -> Error (Printf.sprintf "cannot parse %S: %s" s e)

(* ---- requests ---------------------------------------------------- *)

let rec envelope_of_json ~allow_batch json =
  let id =
    Option.value ~default:0 (Option.bind (member "id" json) to_int)
  in
  let fail msg = Error (id, msg) in
  let deadline_ms = Option.bind (member "deadline_ms" json) to_int in
  let pred_field key =
    match Option.bind (member key json) to_str with
    | None -> Error (id, Printf.sprintf "missing string field %S" key)
    | Some s -> (
        match parse_pred s with Ok p -> Ok p | Error e -> Error (id, e))
  in
  match Option.bind (member "op" json) to_str with
  | None -> fail "missing string field \"op\""
  | Some op -> (
      let wrap req = Ok { id; deadline_ms; req } in
      match op with
      | "classify" ->
          Result.bind (pred_field "pred") (fun p -> wrap (Classify p))
      | "witness" ->
          Result.bind (pred_field "pred") (fun p -> wrap (Witness p))
      | "implies" ->
          Result.bind (pred_field "pred") (fun a ->
              Result.bind (pred_field "pred2") (fun b ->
                  wrap (Implies (a, b))))
      | "minimize" -> (
          match member "preds" json with
          | Some (J.List items) ->
              let rec go acc = function
                | [] -> wrap (Minimize (List.rev acc))
                | J.String s :: rest -> (
                    match parse_pred s with
                    | Ok p -> go (p :: acc) rest
                    | Error e -> fail e)
                | _ -> fail "\"preds\" must be a list of strings"
              in
              go [] items
          | _ -> fail "missing list field \"preds\"")
      | "monitor" ->
          Result.bind (pred_field "pred") (fun p ->
              match Option.bind (member "trace" json) to_str with
              | None -> fail "missing string field \"trace\""
              | Some trace ->
                  let window =
                    Option.bind (member "window" json) to_int
                  in
                  wrap (Monitor (p, trace, window)))
      | "lattice" -> (
          Result.bind (pred_field "pred") (fun p ->
              match Option.bind (member "kmax" json) to_int with
              | Some k when k < 1 || k > max_kmax ->
                  fail (Printf.sprintf "\"kmax\" must be in 1..%d" max_kmax)
              | kmax -> wrap (Lattice (p, kmax))))
      | "stats" -> wrap Stats
      | "shutdown" -> wrap Shutdown
      | "batch" -> (
          if not allow_batch then fail "batches do not nest"
          else
            match member "reqs" json with
            | Some (J.List items) ->
                let rec go acc = function
                  | [] -> wrap (Batch (List.rev acc))
                  | item :: rest -> (
                      match envelope_of_json ~allow_batch:false item with
                      | Ok env -> go (env :: acc) rest
                      | Error (sub_id, e) ->
                          fail
                            (Printf.sprintf "batch request %d: %s" sub_id e))
                in
                go [] items
            | _ -> fail "missing list field \"reqs\"")
      | other -> fail (Printf.sprintf "unknown op %S" other))

let request_of_json json = envelope_of_json ~allow_batch:true json

let rec request_to_json { id; deadline_ms; req } =
  let base = [ ("id", J.Int id) ] in
  let deadline =
    match deadline_ms with
    | None -> []
    | Some d -> [ ("deadline_ms", J.Int d) ]
  in
  let pred p = ("pred", J.String (Forbidden.to_string p)) in
  let op name rest = J.Obj (base @ [ ("op", J.String name) ] @ rest @ deadline) in
  match req with
  | Classify p -> op "classify" [ pred p ]
  | Witness p -> op "witness" [ pred p ]
  | Implies (a, b) ->
      op "implies" [ pred a; ("pred2", J.String (Forbidden.to_string b)) ]
  | Minimize ps ->
      op "minimize"
        [
          ( "preds",
            J.List
              (List.map (fun p -> J.String (Forbidden.to_string p)) ps) );
        ]
  | Monitor (p, trace, window) ->
      op "monitor"
        ([ pred p; ("trace", J.String trace) ]
        @ match window with None -> [] | Some w -> [ ("window", J.Int w) ])
  | Lattice (p, kmax) ->
      op "lattice"
        ([ pred p ]
        @ match kmax with None -> [] | Some k -> [ ("kmax", J.Int k) ])
  | Stats -> op "stats" []
  | Shutdown -> op "shutdown" []
  | Batch envs ->
      op "batch" [ ("reqs", J.List (List.map request_to_json envs)) ]

(* ---- responses --------------------------------------------------- *)

let ok_response ~id payload =
  J.Obj [ ("id", J.Int id); ("ok", J.Bool true); ("result", payload) ]

let error_response ~id msg =
  J.Obj [ ("id", J.Int id); ("ok", J.Bool false); ("error", J.String msg) ]

let result_of_response json =
  match member "ok" json with
  | Some (J.Bool true) -> (
      match member "result" json with
      | Some r -> Ok r
      | None -> Error "response has no result field")
  | Some (J.Bool false) -> (
      match Option.bind (member "error" json) to_str with
      | Some e -> Error e
      | None -> Error "request failed (no error message)")
  | _ -> Error "response has no ok field"

(* ---- result payloads (shared with the CLI --json output) --------- *)

(* Each payload has a builder from the canonical key and its digest,
   computed once per request by the engine's admission, and a
   [*_payload] entry point that canonicalizes first. The canonical
   predicate is materialized only here, that is only on a cache miss. *)

let classify_of_key key digest =
  let canonical = Canon.of_key key in
  let r = Classify.classify canonical in
  let implementable, cls =
    match r.Classify.verdict with
    | Classify.Not_implementable -> (false, J.Null)
    | Classify.Implementable c ->
        (true, J.String (Classify.class_to_string c))
  in
  (* the flag appears only on truncated results, so every other payload
     keeps its bytes *)
  let truncated =
    if r.Classify.orders_truncated then [ ("orders_truncated", J.Bool true) ]
    else []
  in
  J.Obj
    ([
       ("predicate", J.String (Forbidden.to_string canonical));
       ("digest", J.String digest);
       ("verdict", J.String (Classify.verdict_to_string r.Classify.verdict));
       ("implementable", J.Bool implementable);
       ("class", cls);
       ("orders", J.List (List.map (fun o -> J.Int o) r.Classify.orders));
     ]
    @ truncated
    @ [
        ("necessity_exact", J.Bool r.Classify.necessity_exact);
        ( "simplification",
          J.String
            (match r.Classify.simplification with
            | `None -> "none"
            | `Dropped_tautologies -> "dropped-tautologies"
            | `Unsatisfiable -> "unsatisfiable") );
      ])

let classify_payload pred =
  let key = Canon.key pred in
  classify_of_key key (Canon.key_digest key)

let implies_of_keys (ka, da) (kb, db) =
  let ca = Canon.of_key ka and cb = Canon.of_key kb in
  let fwd = Implies.check ca cb and bwd = Implies.check cb ca in
  J.Obj
    [
      ("pred", J.String (Forbidden.to_string ca));
      ("pred2", J.String (Forbidden.to_string cb));
      ("digest", J.String da);
      ("digest2", J.String db);
      ("forward", J.Bool fwd);
      ("backward", J.Bool bwd);
      ( "relationship",
        J.String
          (match Implies.compare_specs ca cb with
          | `Equivalent -> "equivalent"
          | `Stronger -> "stronger"
          | `Weaker -> "weaker"
          | `Incomparable -> "incomparable") );
    ]

let implies_payload a b =
  let ka = Canon.key a and kb = Canon.key b in
  implies_of_keys (ka, Canon.key_digest ka) (kb, Canon.key_digest kb)

let witness_of_key key digest =
  let canonical = Canon.of_key key in
  let base =
    [
      ("predicate", J.String (Forbidden.to_string canonical));
      ("digest", J.String digest);
    ]
  in
  match Witness.build canonical with
  | Witness.Witness w ->
      J.Obj
        (base
        @ [
            ("witness", J.Bool true);
            ( "limit_class",
              J.String
                (Mo_order.Limits.cls_to_string
                   (Mo_order.Limits.classify w.Witness.run)) );
            ( "diagram",
              J.String (Mo_order.Diagram.render_abstract w.Witness.run) );
          ])
  | Witness.Cyclic ->
      J.Obj
        (base
        @ [ ("witness", J.Bool false); ("reason", J.String "unsatisfiable") ])
  | Witness.Conflicting_guards ->
      J.Obj
        (base
        @ [
            ("witness", J.Bool false);
            ("reason", J.String "conflicting-guards");
          ])

let witness_payload pred =
  let key = Canon.key pred in
  witness_of_key key (Canon.key_digest key)

let minimize_of_spec_key ~members sk =
  let canonical = Canon.of_spec_key sk in
  let minimized = Spec.minimize canonical in
  J.Obj
    [
      ("members", J.Int members);
      ("canonical_members", J.Int (List.length canonical.Spec.predicates));
      ( "kept",
        J.List
          (List.map
             (fun p -> J.String (Forbidden.to_string p))
             minimized.Spec.predicates) );
      ( "dropped",
        J.Int
          (List.length canonical.Spec.predicates
          - List.length minimized.Spec.predicates) );
      ("digest", J.String (Canon.spec_key_digest sk));
    ]

let minimize_payload preds =
  minimize_of_spec_key ~members:(List.length preds)
    (Canon.spec_key (Spec.make ~name:"query" preds))

let monitor_payload ?window pred ~trace =
  let module T = Mo_workload.Trace_io in
  match T.parse_prefix trace with
  | Error e -> raise (Bad_request ("bad trace: " ^ T.error_to_string e))
  | Ok p -> (
      match
        let window =
          Option.value ~default:Mo_order.Monitor.max_window window
        in
        let t =
          Mo_core.Pmon.create ~window
            ~nprocs:(max p.T.p_nprocs 1)
            (Eval.compile pred)
        in
        List.iter
          (function
            | `Send (msg, src, dst, color) ->
                ignore (Mo_core.Pmon.send t ~msg ~src ~dst ?color ())
            | `Deliver msg -> ignore (Mo_core.Pmon.deliver t ~msg))
          p.T.p_events;
        t
      with
      | exception Invalid_argument msg -> raise (Bad_request msg)
      | t ->
          let mon = Mo_core.Pmon.monitor t in
          let module M = Mo_order.Monitor in
          J.Obj
            [
              ("predicate", J.String (Forbidden.to_string pred));
              ("events", J.Int (M.events mon));
              ("pending", J.Int (M.pending mon));
              ("window", J.Int (M.window mon));
              ("frontier_bytes", J.Int (M.frontier_bytes mon));
              ( "violation",
                match Mo_core.Pmon.verdict t with
                | None -> J.Null
                | Some v ->
                    J.Obj
                      [
                        ("at", J.Int v.Mo_core.Pmon.at);
                        ( "witness",
                          J.List
                            (List.map
                               (fun m -> J.Int m)
                               (Array.to_list v.Mo_core.Pmon.witness)) );
                      ] );
            ])

let lattice_of_key ?(kmax = 3) ?(sym = true) key digest =
  if kmax < 1 || kmax > max_kmax then
    raise (Bad_request (Printf.sprintf "kmax must be in 1..%d" max_kmax));
  let canonical = Canon.of_key key in
  (* The quotiented placement is one pass over the process-wide leaf
     table, with no pool; it renders byte for byte what the concrete
     walk renders (test_sym and test_leaf_table pin the two payloads
     against each other). *)
  let pl =
    Modelcheck.placement ~kmax ~sym ~sizes:Modelcheck.universe_sizes
      canonical
  in
  let names ms =
    J.List
      (List.map (fun m -> J.String (Mo_order.Lattice.to_string m)) ms)
  in
  J.Obj
    [
      ("predicate", J.String (Forbidden.to_string canonical));
      ("digest", J.String digest);
      ("kmax", J.Int kmax);
      ("runs", J.Int pl.Modelcheck.p_runs);
      ("spec_members", J.Int pl.Modelcheck.p_spec);
      ( "models",
        J.List
          (List.map
             (fun (p : Modelcheck.place) ->
               J.Obj
                 [
                   ( "model",
                     J.String (Mo_order.Lattice.to_string p.Modelcheck.pl_model)
                   );
                   ("members", J.Int p.Modelcheck.pl_members);
                   ("intersection", J.Int p.Modelcheck.pl_inter);
                   ("model_in_spec", J.Bool p.Modelcheck.pl_model_in_spec);
                   ("spec_in_model", J.Bool p.Modelcheck.pl_spec_in_model);
                 ])
             pl.Modelcheck.p_places) );
      ("sufficient", names pl.Modelcheck.p_sufficient);
      ("guarantees", names pl.Modelcheck.p_guarantees);
    ]

let lattice_payload ?kmax ?sym pred =
  let key = Canon.key pred in
  lattice_of_key ?kmax ?sym key (Canon.key_digest key)

(* ---- framing ----------------------------------------------------- *)

let default_max_frame = 1 lsl 20

(* ---- replies and the frame writer ------------------------------- *)

type reply =
  | Json of J.t
  | Payload of int * string
  | Responses of int * reply list

(* [{"id":], the id, [,"ok":true,"result":], the text and [}]: the
   bytes of [ok_response ~id] around a payload already printed *)
let ok_head = "{\"id\":"

let ok_mid = ",\"ok\":true,\"result\":"

(* [{"responses":[], the members' texts between commas, and []}]: the
   bytes of the batch result tree around replies already printed *)
let responses_head = "{\"responses\":["

let rec payload_size = function
  | Json j -> J.compact_size j
  | Payload (id, text) -> ok_size id + String.length text
  | Responses (id, members) ->
      List.fold_left
        (fun acc r -> acc + payload_size r)
        (ok_size id + String.length responses_head
        + max 0 (List.length members - 1)
        + 2)
        members

(* the [ok] response's bytes around its result *)
and ok_size id =
  String.length ok_head + J.int_size id + String.length ok_mid + 1

let frame_size n = J.int_size n + n + 2

let put b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

(* the JSON text of [reply] at [pos]; a batch's members are printed in
   place, between its head and tail *)
let rec blit_reply b pos = function
  | Json j -> J.blit b pos j
  | Payload (id, text) ->
      let pos = J.blit_int b (put b pos ok_head) id in
      let pos = put b (put b pos ok_mid) text in
      Bytes.set b pos '}';
      pos + 1
  | Responses (id, members) ->
      let pos = J.blit_int b (put b pos ok_head) id in
      let pos = put b (put b pos ok_mid) responses_head in
      let pos =
        match members with
        | [] -> pos
        | r :: rest ->
            List.fold_left
              (fun pos r ->
                Bytes.set b pos ',';
                blit_reply b (pos + 1) r)
              (blit_reply b pos r) rest
      in
      put b pos "]}}"

(* the frame of [reply], whose payload is [n] bytes, at [pos] *)
let blit_frame b pos reply n =
  let pos = J.blit_int b pos n in
  Bytes.set b pos '\n';
  let pos = blit_reply b (pos + 1) reply in
  Bytes.set b pos '\n';
  pos + 1

let rec json_of_reply = function
  | Json j -> j
  | Payload (id, text) -> (
      match J.of_string text with
      | Ok payload -> ok_response ~id payload
      | Error e -> invalid_arg ("Codec.json_of_reply: " ^ e))
  | Responses (id, members) ->
      ok_response ~id
        (J.Obj [ ("responses", J.List (List.map json_of_reply members)) ])

type writer = { mutable out : Bytes.t; mutable len : int }

let writer_of_size n = { out = Bytes.create n; len = 0 }

let writer () = writer_of_size 4096

let add_reply w reply =
  let n = payload_size reply in
  let need = w.len + frame_size n in
  if need > Bytes.length w.out then begin
    let nb = Bytes.create (max need (2 * Bytes.length w.out)) in
    Bytes.blit w.out 0 nb 0 w.len;
    w.out <- nb
  end;
  w.len <- blit_frame w.out w.len reply n

let flush fd w =
  let written = ref 0 in
  while !written < w.len do
    written := !written + Unix.write fd w.out !written (w.len - !written)
  done;
  w.len <- 0

let encode_frame json =
  let reply = Json json in
  let n = payload_size reply in
  let b = Bytes.create (frame_size n) in
  ignore (blit_frame b 0 reply n);
  Bytes.unsafe_to_string b

let write_frame fd json =
  let w = writer_of_size 0 in
  add_reply w (Json json);
  flush fd w

(* The reader buffers whatever the descriptor delivers and parses frames
   out of the buffer, so several pipelined frames arriving in one read
   are each available without touching the socket again. [pos..len) is
   the unconsumed window; the buffer grows (it never shrinks) when a
   frame straddles its end. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable pos : int; (* start of unconsumed data *)
  mutable len : int; (* end of valid data *)
  mutable eof : bool;
}

let reader fd = { fd; buf = Bytes.create 8192; pos = 0; len = 0; eof = false }

(* compact, grow if full, then read once; sets [eof] on a 0-byte read *)
let refill r =
  if r.pos > 0 then begin
    Bytes.blit r.buf r.pos r.buf 0 (r.len - r.pos);
    r.len <- r.len - r.pos;
    r.pos <- 0
  end;
  if r.len = Bytes.length r.buf then begin
    let nb = Bytes.create (2 * Bytes.length r.buf) in
    Bytes.blit r.buf 0 nb 0 r.len;
    r.buf <- nb
  end;
  let n = Unix.read r.fd r.buf r.len (Bytes.length r.buf - r.len) in
  if n = 0 then r.eof <- true else r.len <- r.len + n;
  n

(* Try to parse one complete frame out of the buffer. Consumes bytes
   only on [`Frame]; [`Need] means the buffer holds a prefix of a valid
   frame and more bytes must arrive first. The trailing '\n' is part of
   the frame (optional only at end-of-stream), so a parsed frame never
   leaves its terminator behind to poison the next header. *)
let parse ~max_len r =
  if r.len = r.pos then (if r.eof then `Eof else `Need)
  else begin
    (* the payload is parsed where it lies in the buffer *)
    let finish body n consumed_to =
      match J.of_bytes r.buf ~pos:body ~len:n with
      | Ok json ->
          r.pos <- consumed_to;
          `Frame json
      | Error e -> `Error ("bad frame JSON: " ^ e)
    in
    (* header: decimal length terminated by '\n' *)
    let rec header i acc ndigits =
      if ndigits > 10 then `Error "frame header too long"
      else if i >= r.len then
        if r.eof then `Error "eof inside frame header" else `Need
      else
        match Bytes.get r.buf i with
        | '\n' ->
            if ndigits = 0 then `Error "empty frame header"
            else `Header (i + 1, acc)
        | '0' .. '9' as c ->
            header (i + 1) ((acc * 10) + (Char.code c - Char.code '0'))
              (ndigits + 1)
        | c -> `Error (Printf.sprintf "bad frame header byte %C" c)
    in
    match header r.pos 0 0 with
    | `Error e -> `Error e
    | `Need -> `Need
    | `Header (body, n) ->
        if n > max_len then
          `Error (Printf.sprintf "frame of %d bytes exceeds limit %d" n max_len)
        else if r.len - body < n then
          if r.eof then `Error "eof inside frame payload" else `Need
        else begin
          let after = body + n in
          if after < r.len then
            match Bytes.get r.buf after with
            | '\n' -> finish body n (after + 1)
            | c -> `Error (Printf.sprintf "expected frame terminator, got %C" c)
          else if r.eof then finish body n after
          else `Need
        end
  end

let read_frame ?(max_len = default_max_frame) r =
  let rec loop () =
    match parse ~max_len r with
    | `Frame j -> Ok (Some j)
    | `Eof -> Ok None
    | `Error e -> Error e
    | `Need ->
        ignore (refill r);
        loop ()
  in
  loop ()

let read_frame_nonblock ?(max_len = default_max_frame) r =
  match parse ~max_len r with
  | (`Frame _ | `Eof | `Error _) as res -> res
  | `Need -> (
      (* at most one poll + one read per call; the caller decides
         whether to come back (pipelining) or block (read_frame) *)
      match Unix.select [ r.fd ] [] [] 0.0 with
      | [], _, _ -> `Nothing
      | _ -> (
          ignore (refill r);
          match parse ~max_len r with
          | (`Frame _ | `Eof | `Error _) as res -> res
          | `Need -> `Nothing))
