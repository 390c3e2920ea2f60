(* Child processes: run-to-completion with captured output, and the
   mopcd daemon's spawn / ready / shutdown / reap cycle. *)

open Common

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0)

let read_all fd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let rec waitpid_eintr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_eintr flags pid

(* run [prog args] to completion; its stdout, and whether it exited 0 *)
let run_capture prog args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process prog
      (Array.of_list (prog :: args))
      (Lazy.force devnull) wr Unix.stderr
  in
  Unix.close wr;
  let out =
    Fun.protect ~finally:(fun () -> Unix.close rd) (fun () -> read_all rd)
  in
  let _, status = waitpid_eintr [] pid in
  (status = Unix.WEXITED 0, out)

(* ---- the daemon --------------------------------------------------- *)

type daemon = {
  pid : int;
  socket : string;
  out : Unix.file_descr;  (** the daemon's stdout: ready line, farewell *)
  mutable reaped : bool;
}

(* daemons not yet reaped; at_exit stops any an exception left behind *)
let live : daemon list ref = ref []

let spawned = ref 0

let exited d =
  d.reaped
  ||
  match waitpid_eintr [ Unix.WNOHANG ] d.pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let wait_exit d ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    if exited d then true
    else if now () > deadline then false
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

let unlink_quiet path = try Unix.unlink path with Unix.Unix_error _ -> ()

(* A private socket per spawn, relative to the checkout (socket paths
   are capped at ~108 bytes; the checkout's absolute path is not). *)
let run_dir = ".perfbench-run"

let make_run_dir () =
  try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let spawn ~mopcd =
  make_run_dir ();
  incr spawned;
  let socket =
    Printf.sprintf "%s/mopcd-%d-%d.sock" run_dir (Unix.getpid ()) !spawned
  in
  unlink_quiet socket;
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process mopcd
      [|
        mopcd; "--socket"; socket; "--jobs"; string_of_int jobs;
        "--max-requests"; "1000000000"; "--recv-timeout"; "120";
      |]
      (Lazy.force devnull) wr Unix.stderr
  in
  Unix.close wr;
  let d = { pid; socket; out = rd; reaped = false } in
  live := d :: !live;
  (* the ready line is printed once the socket is bound and listening *)
  let line = Buffer.create 80 and c = Bytes.create 1 in
  let deadline = now () +. 30. in
  let rec ready () =
    let left = deadline -. now () in
    if left <= 0. then failwith "mopcd: no ready line within 30 s";
    match Unix.select [ rd ] [] [] left with
    | [], _, _ -> ready ()
    | _ -> (
        match Unix.read rd c 0 1 with
        | 0 -> failwith "mopcd: exited before it was ready"
        | _ when Bytes.get c 0 = '\n' -> Buffer.contents line
        | _ ->
            Buffer.add_bytes line c;
            ready ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ready ()
  in
  let l = ready () in
  if not (String.starts_with ~prefix:"mopcd: listening on" l) then
    failwith ("mopcd: unexpected ready line: " ^ l);
  d

let peak_rss_mb d = Common.peak_rss_mb (string_of_int d.pid)

(* shutdown op, then SIGTERM, then SIGKILL; always reaps the process,
   closes its pipe and unlinks its socket *)
let stop d =
  if not d.reaped then begin
    (try
       let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       Fun.protect
         ~finally:(fun () -> Unix.close fd)
         (fun () ->
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
           Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.;
           Unix.connect fd (Unix.ADDR_UNIX d.socket);
           Mo_service.Codec.write_frame fd
             (Mo_service.Codec.request_to_json
                { Mo_service.Codec.id = 0; deadline_ms = None;
                  req = Mo_service.Codec.Shutdown });
           ignore (Mo_service.Codec.read_frame (Mo_service.Codec.reader fd)))
     with Unix.Unix_error _ | Sys_error _ -> ());
    if not (wait_exit d ~timeout:5.) then begin
      (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
      if not (wait_exit d ~timeout:3.) then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (waitpid_eintr [] d.pid) with Unix.Unix_error _ -> ())
      end
    end;
    d.reaped <- true;
    (try ignore (read_all d.out) with Unix.Unix_error _ -> ());
    (try Unix.close d.out with Unix.Unix_error _ -> ());
    unlink_quiet d.socket;
    live := List.filter (fun x -> x != d) !live
  end

let () = at_exit (fun () -> List.iter stop !live)

let with_daemon ~mopcd f =
  let d = spawn ~mopcd in
  Fun.protect ~finally:(fun () -> stop d) (fun () -> f d)

let connect d =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX d.socket);
  fd
