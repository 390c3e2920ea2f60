type transport = Uds of string | Tcp of string * int

module Metrics = Mo_obs.Metrics

type config = {
  transport : transport;
  cache_capacity : int;
  stripes : int;
  jobs : int option;
  max_frame : int;
  recv_timeout_s : float;
  max_conn_requests : int;
  pipeline_depth : int;
  persist : string option;
  persist_interval_s : float option;
}

let default_config ~socket_path =
  {
    transport = Uds socket_path;
    cache_capacity = 4096;
    stripes = 8;
    jobs = None;
    max_frame = Codec.default_max_frame;
    recv_timeout_s = 10.;
    max_conn_requests = 10_000;
    pipeline_depth = 64;
    persist = None;
    persist_interval_s = None;
  }

let log fmt =
  Printf.ksprintf (fun s -> Printf.eprintf "mopcd: %s\n%!" s) fmt

(* a socket file left behind by a kill-9'd daemon would make bind fail
   forever; but blindly unlinking would steal the socket from a live
   daemon. Probe with a connect: refused means nobody is listening (the
   file is a corpse, remove it); accepted or queued means a live daemon
   owns it (refuse to start). *)
let remove_stale_socket path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok ()
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let verdict =
        match
          Unix.set_nonblock probe;
          Unix.connect probe (Unix.ADDR_UNIX path)
        with
        | () -> `Live
        | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> `Stale
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> `Gone
        | exception
            Unix.Unix_error
              ((Unix.EINPROGRESS | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            (* connect pending or the listen queue is full: either way,
               someone is listening *)
            `Live
        | exception Unix.Unix_error (e, _, _) ->
            `Error (Unix.error_message e)
      in
      (try Unix.close probe with Unix.Unix_error _ -> ());
      match verdict with
      | `Gone -> Ok ()
      | `Stale -> (
          log "removing stale socket %s" path;
          match Unix.unlink path with
          | () -> Ok ()
          | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok ()
          | exception Unix.Unix_error (e, _, _) ->
              Error
                (Printf.sprintf "cannot remove stale socket %s: %s" path
                   (Unix.error_message e)))
      | `Live ->
          Error
            (Printf.sprintf "socket %s is in use by a live daemon" path)
      | `Error e ->
          Error (Printf.sprintf "cannot probe socket %s: %s" path e))
  | _ -> Error (Printf.sprintf "%s exists and is not a socket" path)
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cannot stat %s: %s" path (Unix.error_message e))

(* Open-connection registry: the stop path unblocks workers parked in a
   blocking read by shutting their sockets down ([Unix.shutdown] makes
   the read return EOF). Every operation holds the one lock, so a
   worker's close can never race the sweep into shutting down a freshly
   reused descriptor. *)
module Registry = struct
  type t = {
    lock : Mutex.t;
    tbl : (int, Unix.file_descr) Hashtbl.t;
    mutable next : int;
  }

  let create () =
    { lock = Mutex.create (); tbl = Hashtbl.create 16; next = 0 }

  let add t fd =
    Mutex.protect t.lock (fun () ->
        let id = t.next in
        t.next <- id + 1;
        Hashtbl.replace t.tbl id fd;
        id)

  let close t id fd =
    Mutex.protect t.lock (fun () ->
        Hashtbl.remove t.tbl id;
        try Unix.close fd with Unix.Unix_error _ -> ())

  let shutdown_all t =
    Mutex.protect t.lock (fun () ->
        Hashtbl.iter
          (fun _ fd ->
            try Unix.shutdown fd Unix.SHUTDOWN_ALL
            with Unix.Unix_error _ -> ())
          t.tbl)
end

(* serve one connection, pipelined; returns [true] when a top-level
   shutdown request was admitted *)
let serve_connection cfg engine conn =
  (try
     Unix.setsockopt_float conn Unix.SO_RCVTIMEO cfg.recv_timeout_s;
     Unix.setsockopt_float conn Unix.SO_SNDTIMEO cfg.recv_timeout_s
   with Unix.Unix_error _ -> ());
  (match cfg.transport with
  | Tcp _ -> (
      try Unix.setsockopt conn Unix.TCP_NODELAY true
      with Unix.Unix_error _ -> ())
  | Uds _ -> ());
  let r = Codec.reader conn in
  (* every reply of this connection goes out through one reused writer *)
  let w = Codec.writer () in
  let shutdown = ref false in
  let hangup e =
    (* framing is broken: answer if possible, then hang up *)
    (try
       Codec.add_reply w (Codec.Json (Codec.error_response ~id:0 e));
       Codec.flush conn w
     with Unix.Unix_error _ | Sys_error _ -> ());
    log "closing connection: %s" e
  in
  let rec loop served =
    match Codec.read_frame ~max_len:cfg.max_frame r with
    | Ok None -> ()
    | Error e -> hangup e
    | Ok (Some json) ->
        let received = Unix.gettimeofday () in
        (* decode-ahead: pick up the frames that already arrived (up to
           [pipeline_depth] and the connection's remaining request
           budget) so their distinct cache misses compute in parallel —
           responses still go out in request order, in one write *)
        let budget =
          min cfg.pipeline_depth (cfg.max_conn_requests - served)
        in
        let rec gather acc k =
          if k >= budget then (List.rev acc, None)
          else
            match Codec.read_frame_nonblock ~max_len:cfg.max_frame r with
            | `Frame j -> gather (j :: acc) (k + 1)
            | `Nothing | `Eof -> (List.rev acc, None)
            | `Error e -> (List.rev acc, Some e)
        in
        let group, frame_err = gather [ json ] 1 in
        let replies, wants_shutdown =
          Engine.serve_replies engine ~received group
        in
        List.iter (Codec.add_reply w) replies;
        Codec.flush conn w;
        let served = served + List.length group in
        if wants_shutdown then shutdown := true
        else (
          match frame_err with
          | Some e -> hangup e
          | None ->
              if served >= cfg.max_conn_requests then
                (* request budget spent: hang up so the dispatch pool
                   gets back to the other clients *)
                log "closing connection: served %d requests" served
              else loop served)
  in
  (try loop 0 with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      log "closing connection: read timeout"
  | Unix.Unix_error (e, _, _) ->
      log "closing connection: %s" (Unix.error_message e)
  | Sys_error e -> log "closing connection: %s" e);
  !shutdown

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
          failwith (Printf.sprintf "cannot resolve host %S" host)
      | h -> h.Unix.h_addr_list.(0)
      | exception Not_found ->
          failwith (Printf.sprintf "cannot resolve host %S" host))

let listen_socket cfg =
  let bound domain addr =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match
      (match addr with
      | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
      | Unix.ADDR_UNIX _ -> ());
      Unix.bind fd addr;
      Unix.listen fd 64;
      Unix.set_nonblock fd
    with
    | () -> fd
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  in
  match cfg.transport with
  | Uds path ->
      (match remove_stale_socket path with
      | Ok () -> ()
      | Error e -> failwith e);
      bound Unix.PF_UNIX (Unix.ADDR_UNIX path)
  | Tcp (host, port) ->
      bound Unix.PF_INET (Unix.ADDR_INET (resolve_host host, port))

let run ?engine ?(on_ready = fun (_ : Unix.sockaddr) -> ()) cfg =
  let engine =
    match engine with
    | Some e -> e
    | None ->
        let pool =
          match cfg.jobs with
          | Some j -> Mo_par.Pool.create ~jobs:j ()
          | None -> Mo_par.Pool.create ()
        in
        Engine.create ~cache_capacity:cfg.cache_capacity
          ~stripes:cfg.stripes ~pool ()
  in
  (* warm restart: feed the persisted decision table back in before the
     first connection; a bad snapshot means a cold start, not a death *)
  (match cfg.persist with
  | None -> ()
  | Some path -> (
      match Persist.load ~path with
      | Ok None -> ()
      | Ok (Some entries) ->
          let n = Engine.restore engine entries in
          log "restored %d cached decisions from %s" n path
      | Error e -> log "ignoring snapshot %s: %s (starting cold)" path e));
  let c_saves =
    Metrics.counter
      (Engine.registry engine)
      ~help:"persist snapshots written (periodic and shutdown)"
      "svc.persist.saves"
  in
  let save_snapshot ~why path =
    let entries = Engine.snapshot engine in
    match Persist.save ~path entries with
    | () ->
        Metrics.inc c_saves;
        log "persisted %d cached decisions to %s (%s)"
          (List.length entries) path why
    | exception e ->
        log "cannot persist to %s: %s" path (Printexc.to_string e)
  in
  (* periodic snapshots ride the accept loop: with an interval
     configured, select gets a finite timeout and the loop writes a
     snapshot whenever the deadline passes — a kill-9'd daemon restarts
     warm from the last interval, not cold *)
  let periodic =
    match (cfg.persist, cfg.persist_interval_s) with
    | Some path, Some s when s > 0. -> Some (path, s)
    | _ -> None
  in
  let next_save =
    ref
      (match periodic with
      | Some (_, s) -> Unix.gettimeofday () +. s
      | None -> infinity)
  in
  let stop = Atomic.make false in
  (* self-pipe: signal handlers and workers that admitted a shutdown
     request wake the accept loop by writing one byte — the loop blocks
     in select with no timeout, so shutdown latency is one wakeup, not
     a poll interval *)
  let pipe_rd, pipe_wr = Unix.pipe () in
  let request_stop () =
    Atomic.set stop true;
    try ignore (Unix.single_write pipe_wr (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()
  in
  let previous =
    List.map
      (fun sg ->
        (sg, Sys.signal sg (Sys.Signal_handle (fun _ -> request_stop ()))))
      [ Sys.sigint; Sys.sigterm ]
  in
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let restore_signals () =
    List.iter (fun (sg, h) -> Sys.set_signal sg h) previous;
    Sys.set_signal Sys.sigpipe prev_pipe
  in
  let close_pipe () =
    (try Unix.close pipe_rd with Unix.Unix_error _ -> ());
    (try Unix.close pipe_wr with Unix.Unix_error _ -> ())
  in
  let fd =
    match listen_socket cfg with
    | fd -> fd
    | exception e ->
        restore_signals ();
        close_pipe ();
        raise e
  in
  let workers =
    Mo_par.Workers.create
      ~jobs:
        (match cfg.jobs with
        | Some j -> j
        | None -> Mo_par.default_jobs ())
  in
  let registry = Registry.create () in
  on_ready (Unix.getsockname fd);
  let drain_pipe () =
    let b = Bytes.create 16 in
    try ignore (Unix.read pipe_rd b 0 16) with Unix.Unix_error _ -> ()
  in
  while not (Atomic.get stop) do
    let timeout =
      match periodic with
      | None -> -1.
      | Some _ -> Float.max 0. (!next_save -. Unix.gettimeofday ())
    in
    match Unix.select [ fd; pipe_rd ] [] [] timeout with
    | rs, _, _ ->
        (match periodic with
        | Some (path, s) when Unix.gettimeofday () >= !next_save ->
            save_snapshot ~why:"interval" path;
            next_save := Unix.gettimeofday () +. s
        | _ -> ());
        if List.mem pipe_rd rs then drain_pipe ();
        if (not (Atomic.get stop)) && List.mem fd rs then (
          match Unix.accept fd with
          | conn, _ ->
              Unix.clear_nonblock conn;
              (* the whole connection is one task: a worker domain owns
                 it from first frame to close *)
              Mo_par.Workers.submit workers (fun () ->
                  let id = Registry.add registry conn in
                  let wants =
                    try serve_connection cfg engine conn
                    with e ->
                      log "connection handler died: %s"
                        (Printexc.to_string e);
                      false
                  in
                  Registry.close registry id conn;
                  if wants then request_stop ())
          | exception
              Unix.Unix_error
                ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* stop accepting, unblock parked readers, then drain the workers —
     in-flight connections finish before the snapshot is taken *)
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Registry.shutdown_all registry;
  Mo_par.Workers.shutdown workers;
  (match cfg.persist with
  | None -> ()
  | Some path -> save_snapshot ~why:"shutdown" path);
  (match cfg.transport with
  | Uds path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  close_pipe ();
  restore_signals ()
