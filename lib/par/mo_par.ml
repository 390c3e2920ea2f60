let available = true
let recommended_jobs () = Domain.recommended_domain_count ()

let default_jobs () =
  match Option.bind (Sys.getenv_opt "MO_JOBS") int_of_string_opt with
  | Some j when j >= 1 -> j
  | Some _ | None -> recommended_jobs ()

let rng ~seed ~stream =
  (* distinct constants keep (seed, stream) pairs from aliasing
     (seed+1, stream-1); SplitMix-style odd multipliers *)
  Random.State.make [| 0x6d6f5061; seed; stream * 0x9e3779b9; stream |]

module Workers = struct
  type t = {
    queue : (unit -> unit) Queue.t;
    m : Mutex.t;
    nonempty : Condition.t;
    mutable closing : bool;
    mutable handles : unit Domain.t list;
  }

  (* classic bounded-worker loop: wait while the queue is empty and the
     pool is open; run everything still queued before honoring a close,
     so shutdown drains rather than drops *)
  let worker t () =
    let rec next () =
      Mutex.lock t.m;
      while Queue.is_empty t.queue && not t.closing do
        Condition.wait t.nonempty t.m
      done;
      let task = Queue.take_opt t.queue in
      Mutex.unlock t.m;
      match task with
      | None -> ()
      | Some task ->
          (try task () with _ -> ());
          next ()
    in
    next ()

  let make () =
    {
      queue = Queue.create ();
      m = Mutex.create ();
      nonempty = Condition.create ();
      closing = false;
      handles = [];
    }

  (* spawn workers until there are [n]; a pool never shrinks *)
  let grow t n =
    Mutex.protect t.m (fun () ->
        for _ = List.length t.handles + 1 to n do
          t.handles <- Domain.spawn (worker t) :: t.handles
        done)

  let create ~jobs =
    if jobs < 1 then invalid_arg "Workers.create: jobs must be >= 1";
    let t = make () in
    grow t jobs;
    t

  let jobs t = Mutex.protect t.m (fun () -> List.length t.handles)

  let submit t task =
    Mutex.protect t.m (fun () ->
        if t.closing then invalid_arg "Workers.submit: pool is shut down";
        Queue.push task t.queue;
        Condition.signal t.nonempty)

  let shutdown t =
    let fresh =
      Mutex.protect t.m (fun () ->
          let fresh = not t.closing in
          t.closing <- true;
          Condition.broadcast t.nonempty;
          fresh)
    in
    if fresh then List.iter Domain.join t.handles
end

(* The helper domains behind every [Pool]: one set per process, grown on
   demand to the largest [jobs - 1] a map has needed, never shut down.
   Idle helpers sleep on the queue's condition variable. *)
let shared = Workers.make ()

module Pool = struct
  type t = { jobs : int }

  let create ?jobs () =
    let j = match jobs with Some j -> j | None -> default_jobs () in
    if j < 1 then invalid_arg "Mo_par.Pool.create: jobs must be >= 1";
    { jobs = j }

  let jobs t = t.jobs
  let helpers () = Workers.jobs shared

  let map t ?chunk n ~f =
    if n < 0 then invalid_arg "Par.Pool.map: negative size";
    let jobs = min t.jobs (max 1 n) in
    let chunk =
      match chunk with
      | Some c when c >= 1 -> c
      | Some _ -> invalid_arg "Par.Pool.map: chunk must be >= 1"
      | None -> max 1 ((n + (jobs * 8) - 1) / (jobs * 8))
    in
    if n = 0 then [||]
    else if jobs = 1 then Array.init n f
    else begin
      let nchunks = (n + chunk - 1) / chunk in
      let results = Array.make n None in
      let next = Atomic.make 0 and finished = Atomic.make 0 in
      let failure = Atomic.make None in
      let m = Mutex.create () and all_done = Condition.create () in
      (* the caller and every helper claim chunks off one counter until
         none are left. Completion counts finished chunks, not finished
         helpers: a helper that wakes after the last claim finds nothing
         and returns, and nobody waits for it. After a failure the
         remaining chunks are claimed and skipped, so the count still
         completes. *)
      let drain () =
        let c = ref (Atomic.fetch_and_add next 1) in
        while !c < nchunks do
          (if Atomic.get failure = None then
             try
               for i = !c * chunk to min n ((!c + 1) * chunk) - 1 do
                 results.(i) <- Some (f i)
               done
             with e -> ignore (Atomic.compare_and_set failure None (Some e)));
          if Atomic.fetch_and_add finished 1 = nchunks - 1 then
            Mutex.protect m (fun () -> Condition.broadcast all_done);
          c := Atomic.fetch_and_add next 1
        done
      in
      let extra = min (jobs - 1) (nchunks - 1) in
      Workers.grow shared extra;
      for _ = 1 to extra do
        Workers.submit shared drain
      done;
      drain ();
      (* only chunks another domain is running can be left *)
      if Atomic.get finished < nchunks then
        Mutex.protect m (fun () ->
            while Atomic.get finished < nchunks do
              Condition.wait all_done m
            done);
      (match Atomic.get failure with Some e -> raise e | None -> ());
      Array.map (function Some v -> v | None -> assert false) results
    end

  let fold t ?chunk n ~f ~merge ~init =
    Array.fold_left merge init (map t ?chunk n ~f)
end
