(* The process-wide leaf table behind quotiented lattice placement
   (DESIGN.md §3i), built under contention.

   This executable's first action forces the universe-tier table from
   four pool workers at once, each placing a different catalog
   predicate, so the first build is raced exactly as mopcd's engine
   batches race it. Every payload must match, byte for byte, the one
   rendered from the concrete walk, which shares nothing with the
   table. A second round on the warm table must agree too. *)

open Mo_core

let check_string = Alcotest.(check string)

let preds =
  [|
    Catalog.fifo; Catalog.causal_b2; Catalog.sync_crown 2; Catalog.red_marker;
  |]

let render ~sym (e : Catalog.entry) =
  Mo_obs.Jsonb.to_string (Mo_service.Codec.lattice_payload ~sym e.Catalog.pred)

(* Each task waits, up to 50 ms, until all four have started, so the
   builds overlap whenever the host gives the pool four domains; the
   wait is bounded because a map may run every chunk on the caller. *)
let test_concurrent_first_build () =
  let pool = Mo_par.Pool.create ~jobs:4 () in
  let started = Atomic.make 0 in
  let cold =
    Mo_par.Pool.map pool ~chunk:1 (Array.length preds) ~f:(fun i ->
        Atomic.incr started;
        let t0 = Unix.gettimeofday () in
        while
          Atomic.get started < Array.length preds
          && Unix.gettimeofday () -. t0 < 0.05
        do
          Domain.cpu_relax ()
        done;
        render ~sym:true preds.(i))
  in
  let warm =
    Mo_par.Pool.map pool ~chunk:1 (Array.length preds) ~f:(fun i ->
        render ~sym:true preds.(i))
  in
  Array.iteri
    (fun i (e : Catalog.entry) ->
      let concrete = render ~sym:false e in
      check_string
        (e.Catalog.name ^ ": raced first build = concrete walk")
        concrete cold.(i);
      check_string
        (e.Catalog.name ^ ": warm table = concrete walk")
        concrete warm.(i))
    preds

let () =
  Alcotest.run "leaf_table"
    [
      ( "build",
        [
          Alcotest.test_case "concurrent first build" `Quick
            test_concurrent_first_build;
        ] );
    ]
