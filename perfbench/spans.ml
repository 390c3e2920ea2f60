(* The traced run's spans, kept in memory: per name, the durations (for
   the per-layer medians) and a log of every span, written out once the
   run ends. Spans are recorded by the benchmark around its calls into
   each layer's public functions; the program itself is not
   instrumented. *)

open Common

type span = {
  name : string;
  parent : string;
  group : int;
  t0 : float;
  t1 : float;
}

type t = {
  record : bool;
  by_name : (string, Samples.t) Hashtbl.t;
  mutable log : span list;
}

let create () = { record = true; by_name = Hashtbl.create 32; log = [] }

(* a tracer that records nothing: the untraced twin of a traced pass,
   running the same calls, so the two differ only by the tracing *)
let null = { record = false; by_name = Hashtbl.create 1; log = [] }

let samples t name =
  match Hashtbl.find_opt t.by_name name with
  | Some s -> s
  | None ->
      let s = Samples.create () in
      Hashtbl.replace t.by_name name s;
      s

(* record a span that ran from [t0] to [t1] *)
let add t ?(parent = "") ~group name t0 t1 =
  if t.record then begin
    Samples.add (samples t name) (t1 -. t0);
    t.log <- { name; parent; group; t0; t1 } :: t.log
  end

(* run [f] as a span *)
let span t ?parent ~group name f =
  if not t.record then f ()
  else
    let t0 = now () in
    let v = f () in
    add t ?parent ~group name t0 (now ());
    v

let has t name = Samples.count (samples t name) > 0

let median t name = Samples.median (samples t name)

(* one line per span, oldest first: name, parent, group, start and
   duration in microseconds since the first span *)
let write t path =
  let spans = List.rev t.log in
  let base = match spans with s :: _ -> s.t0 | [] -> 0. in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "name\tparent\tgroup\tstart_us\tdur_us\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%s\t%s\t%d\t%.3f\t%.3f\n" s.name s.parent s.group
            ((s.t0 -. base) *. 1e6)
            ((s.t1 -. s.t0) *. 1e6))
        spans)
