type t = {
  fd : Unix.file_descr;
  reader : Codec.reader;
  mutable next_id : int;
}

type addr = Uds of string | Tcp of string * int

let addr_to_string = function
  | Uds path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

type retry = {
  attempts : int;
  base_delay_s : float;
  max_delay_s : float;
  connect_timeout_s : float;
}

let default_retry =
  { attempts = 5; base_delay_s = 0.05; max_delay_s = 0.8; connect_timeout_s = 5. }

let no_retry =
  { attempts = 1; base_delay_s = 0.; max_delay_s = 0.; connect_timeout_s = 5. }

(* errors a briefly-restarting or busy daemon produces: the socket file
   not written yet, a stale file nobody listens on, or a full listen
   queue. Anything else (permissions, not a socket) will not get better
   by waiting. *)
let transient = function
  | Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN | Unix.EWOULDBLOCK
  | Unix.EINTR | Unix.ETIMEDOUT | Unix.ECONNRESET ->
      true
  | _ -> false

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

(* may raise Failure on an unresolvable host — a permanent error *)
let sockaddr_of = function
  | Uds path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (host, port) ->
      (Unix.PF_INET, Unix.ADDR_INET (resolve_host host, port))

(* one bounded connect attempt: non-blocking so a wedged daemon turns
   into ETIMEDOUT after [timeout_s] instead of hanging the client *)
let connect_once ~timeout_s addr =
  let target = addr_to_string addr in
  let domain, sockaddr = sockaddr_of addr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  match
    Unix.set_nonblock fd;
    (try Unix.connect fd sockaddr
     with Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) -> (
       match Unix.select [] [ fd ] [] timeout_s with
       | _, [ _ ], _ -> (
           match Unix.getsockopt_error fd with
           | None -> ()
           | Some e -> raise (Unix.Unix_error (e, "connect", target)))
       | _ -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", target))));
    Unix.clear_nonblock fd;
    match addr with
    | Tcp _ -> (
        (* latency: pipelined frames must not wait out Nagle *)
        try Unix.setsockopt fd Unix.TCP_NODELAY true
        with Unix.Unix_error _ -> ())
    | Uds _ -> ()
  with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error e

let connect_addr ?(retry = default_retry) ?(sleep = Unix.sleepf) addr =
  let target = addr_to_string addr in
  let attempts = max 1 retry.attempts in
  let rec go n delay last_err =
    if n >= attempts then
      Error
        (Printf.sprintf "cannot connect to %s after %d attempt%s: %s" target
           attempts
           (if attempts = 1 then "" else "s")
           (Unix.error_message last_err))
    else
      match connect_once ~timeout_s:retry.connect_timeout_s addr with
      | Ok fd -> Ok { fd; reader = Codec.reader fd; next_id = 1 }
      | Error e when transient e && n + 1 < attempts ->
          sleep delay;
          go (n + 1) (Float.min retry.max_delay_s (delay *. 2.)) e
      | Error e ->
          Error
            (Printf.sprintf "cannot connect to %s%s: %s" target
               (if n > 0 then Printf.sprintf " after %d attempts" (n + 1)
                else "")
               (Unix.error_message e))
      | exception Failure msg -> Error msg
  in
  go 0 retry.base_delay_s Unix.ECONNREFUSED

let connect ?retry ?sleep ~socket_path () =
  connect_addr ?retry ?sleep (Uds socket_path)

let call_raw t json =
  match
    Codec.write_frame t.fd json;
    Codec.read_frame t.reader
  with
  | Ok (Some resp) -> Ok resp
  | Ok None -> Error "server closed the connection"
  | Error e -> Error ("transport: " ^ e)
  | exception Unix.Unix_error (e, _, _) ->
      Error ("transport: " ^ Unix.error_message e)

let call t ?deadline_ms req =
  let id = t.next_id in
  t.next_id <- id + 1;
  let env = { Codec.id; deadline_ms; req } in
  match call_raw t (Codec.request_to_json env) with
  | Error e -> Error e
  | Ok resp -> Codec.result_of_response resp

let call_pipelined t ?deadline_ms reqs =
  let envs =
    List.map
      (fun req ->
        let id = t.next_id in
        t.next_id <- id + 1;
        { Codec.id; deadline_ms; req })
      reqs
  in
  (* all requests go out in one write; responses come back in request
     order (the server's pipelining contract) *)
  let w = Codec.writer () in
  List.iter
    (fun env -> Codec.add_reply w (Codec.Json (Codec.request_to_json env)))
    envs;
  match Codec.flush t.fd w with
  | exception Unix.Unix_error (e, _, _) ->
      let err = Error ("transport: " ^ Unix.error_message e) in
      List.map (fun _ -> err) envs
  | () ->
      let rec read_all acc = function
        | [] -> List.rev acc
        | _ :: rest as pending -> (
            let fill err =
              List.rev_append acc (List.map (fun _ -> Error err) pending)
            in
            match Codec.read_frame t.reader with
            | Ok (Some resp) ->
                read_all (Codec.result_of_response resp :: acc) rest
            | Ok None -> fill "server closed the connection"
            | Error e -> fill ("transport: " ^ e)
            | exception Unix.Unix_error (e, _, _) ->
                fill ("transport: " ^ Unix.error_message e))
      in
      read_all [] envs

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
