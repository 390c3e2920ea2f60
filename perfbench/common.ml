(* Shared plumbing: the monotonic clock, sample sets, memory probes and
   the result record every workload returns. *)

(* seconds on CLOCK_MONOTONIC, via the clock_gettime stub that ships as
   bechamel.monotonic_clock *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* the job count every workload runs at: the benchmark host has two
   cores, and both the daemon and the in-process pools are sized to it *)
let jobs = 2

let pool = lazy (Mo_par.Pool.create ~jobs ())

(* A growable set of float samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  let sorted t =
    let b = Array.sub t.a 0 t.n in
    Array.sort Float.compare b;
    b

  (* nearest-rank percentile, [p] in [0, 100] *)
  let percentile t p =
    if t.n = 0 then invalid_arg "Samples.percentile: no samples";
    let b = sorted t in
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int t.n)) in
    b.(max 0 (min (t.n - 1) (rank - 1)))

  let median t = percentile t 50.

  (* the highest of p99, p90 and p50 with at least ten samples beyond
     it: a tail figure that is not one or two extreme samples *)
  let tail t =
    let beyond p = float_of_int t.n *. (1. -. (p /. 100.)) >= 10. in
    percentile t (if beyond 99. then 99. else if beyond 90. then 90. else 50.)
end

(* the median of a few repetitions of [f], each timed on its own *)
let median_of ~reps f =
  let s = Samples.create () in
  for _ = 1 to reps do
    let t0 = now () in
    f ();
    Samples.add s (now () -. t0)
  done;
  Samples.median s

(* VmHWM (peak resident set) of a process, in MiB; [pid] "self" for the
   benchmark itself *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
          ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith "no VmHWM line"
      in
      scan ())

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* what one traced workload family reports: per-layer metrics, checked
   operations, and (when asked) the tracing overhead in percent *)
type traced = {
  layers : (string * float * string) list;
  t_attempted : int;
  t_failed : int;
  overhead_pct : float option;
}

(* the relative change from [untraced] to [traced], in percent *)
let overhead ~untraced ~traced = 100. *. (traced -. untraced) /. untraced

(* Operations of a timed phase bucketed into equal windows of wall time.
   Each window gets its own throughput and latency percentiles, and the
   run reports a quartile of those (see [summary]). Latencies are
   kept in a fixed, preallocated reservoir per window (a uniform sample
   once a window sees more operations than it holds), so the benchmark's
   own memory does not grow with the throughput it measures. *)
module Windows = struct
  type win = {
    res : float array;
    mutable seen : int;
    mutable items : float;
    mutable busy : float;
    mutable first : float;  (** first and last completion in the window *)
    mutable last : float;
    mutable first_items : float;
  }

  type t = { t0 : float; width : float; wins : win array; rng : Random.State.t }

  let capacity = 10_000

  (* windows of about [width] seconds covering [seconds] from [t0] *)
  let create ~t0 ~seconds ~width =
    let n = max 1 (int_of_float (Float.round (seconds /. width))) in
    {
      t0;
      width = seconds /. float_of_int n;
      wins =
        Array.init n (fun _ ->
            {
              res = Array.make capacity 0.;
              seen = 0;
              items = 0.;
              busy = 0.;
              first = 0.;
              last = 0.;
              first_items = 0.;
            });
      rng = Random.State.make [| n |];
    }

  let add w ~at ~latency ~items =
    let k = int_of_float ((at -. w.t0) /. w.width) in
    if k >= 0 && k < Array.length w.wins then begin
      let b = w.wins.(k) in
      (if b.seen < capacity then b.res.(b.seen) <- latency
       else
         let j = Random.State.int w.rng (b.seen + 1) in
         if j < capacity then b.res.(j) <- latency);
      if b.seen = 0 then begin
        b.first <- at;
        b.first_items <- float_of_int items
      end;
      b.seen <- b.seen + 1;
      b.items <- b.items +. float_of_int items;
      b.last <- at;
      b.busy <- b.busy +. latency
    end

  (* The run's throughput, p50 and tail latency from its windows: of the
     per-window figures, the quartile on the fast side (the 75th
     percentile of throughput, the 25th of latency). On a shared host,
     other tenants intermittently slow a vCPU for seconds at a time;
     this figure stays put as long as a quarter of the windows escape
     them. Throughput is the items completed after a window's first
     completion over the time to its last, or with [~busy] the items per
     second of summed latency (for operations that run one at a time). *)
  let summary w ~busy =
    let rate = Samples.create ()
    and p50 = Samples.create ()
    and tail = Samples.create () in
    Array.iter
      (fun b ->
        if b.seen > 1 then begin
          let l = Samples.create () in
          Array.iter (Samples.add l) (Array.sub b.res 0 (min b.seen capacity));
          Samples.add rate
            (if busy then b.items /. b.busy
             else (b.items -. b.first_items) /. (b.last -. b.first));
          Samples.add p50 (Samples.median l);
          Samples.add tail (Samples.tail l)
        end)
      w.wins;
    ( Samples.percentile rate 75.,
      Samples.percentile p50 25.,
      Samples.percentile tail 25. )
end
