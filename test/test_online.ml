open Mo_order
open Mo_workload

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* offline FIFO verdict: the catalog predicate over the abstract run *)
let offline_fifo_ok a =
  Mo_core.Eval.satisfies Mo_core.Catalog.fifo.Mo_core.Catalog.pred a

let offline_causal_ok = Limits.is_causal

let online_verdicts run =
  let violations, sync = Online.feed_run run in
  let fifo_ok =
    not (List.exists (fun (v : Online.violation) -> v.kind = `Fifo) violations)
  in
  let causal_ok =
    not
      (List.exists (fun (v : Online.violation) -> v.kind = `Causal) violations)
  in
  (fifo_ok, causal_ok, Result.is_ok sync)

let agree run =
  let a = Run.to_abstract run in
  let fifo_on, causal_on, sync_on = online_verdicts run in
  fifo_on = offline_fifo_ok a
  && causal_on = offline_causal_ok a
  && sync_on = Limits.is_sync a

(* exhaustive agreement on every small run *)
let test_agreement_exhaustive () =
  List.iter
    (fun r -> check_bool "agreement" true (agree r))
    (Enumerate.all_runs ~nprocs:2 ~nmsgs:2 ()
    @ Enumerate.all_runs ~nprocs:3 ~nmsgs:2 ()
    @ Enumerate.all_runs ~nprocs:2 ~nmsgs:3 ())

let prop_agreement_random =
  QCheck.Test.make ~name:"online = offline on random runs" ~count:120
    QCheck.(int_bound 5_000)
    (fun seed -> agree (Random_run.run ~nprocs:4 ~nmsgs:14 ~seed ()))

let prop_agreement_causal_runs =
  QCheck.Test.make ~name:"no causal violations on causal runs" ~count:120
    QCheck.(int_bound 5_000)
    (fun seed ->
      let r = Random_run.causal_run ~nprocs:4 ~nmsgs:14 ~seed () in
      let _, causal_ok, _ = online_verdicts r in
      causal_ok)

let prop_sync_numbering =
  QCheck.Test.make ~name:"finalize numbering is a SYNC witness" ~count:100
    QCheck.(int_bound 5_000)
    (fun seed ->
      let r = Random_run.serialized_run ~nprocs:3 ~nmsgs:10 ~seed () in
      match Online.feed_run r with
      | _, Ok t ->
          let a = Run.to_abstract r in
          List.for_all
            (fun (x, y) -> t.(x) < t.(y))
            (Run.Abstract.message_graph a)
      | _, Error _ -> false)

(* every consecutive pair of [cycle], the last back to the first
   included, is an edge of the run's message graph *)
let is_graph_cycle a cycle =
  let edges = Run.Abstract.message_graph a and arr = Array.of_list cycle in
  let k = Array.length arr in
  k >= 2
  && List.for_all
       (fun i -> List.mem (arr.(i), arr.((i + 1) mod k)) edges)
       (List.init k Fun.id)

let prop_crown_is_cycle =
  QCheck.Test.make ~name:"finalize crown is a message-graph cycle" ~count:100
    QCheck.(int_bound 5_000)
    (fun seed ->
      let r = Random_run.run ~nprocs:4 ~nmsgs:14 ~seed () in
      let a = Run.to_abstract r in
      match Online.feed_run r with
      | _, Ok _ -> Limits.is_sync a
      | _, Error cycle -> is_graph_cycle a cycle)

(* x0 and x1 form a 2-crown and x2, sent after x0's delivery, hangs
   below it: x2 is on no cycle, so the crown is {0, 1} alone *)
let test_crown_excludes_hangers () =
  let t = Online.create ~nprocs:3 ~nmsgs:3 in
  Online.send t ~msg:0 ~src:0 ~dst:1;
  Online.send t ~msg:1 ~src:1 ~dst:0;
  check_int "no violation at x1" 0 (List.length (Online.deliver t ~msg:1));
  check_int "no violation at x0" 0 (List.length (Online.deliver t ~msg:0));
  Online.send t ~msg:2 ~src:1 ~dst:2;
  check_int "no violation at x2" 0 (List.length (Online.deliver t ~msg:2));
  match Online.finalize_sync t with
  | Ok _ -> Alcotest.fail "expected a crown"
  | Error cycle ->
      Alcotest.(check (list int)) "crown" [ 0; 1 ] (List.sort compare cycle)

let test_violation_identities () =
  (* P0 sends x0 then x1 on one channel; delivery inverted *)
  let r =
    match
      Run.of_sequences ~nprocs:2
        ~msgs:[| (0, 1); (0, 1) |]
        [|
          [ Event.send 0; Event.send 1 ];
          [ Event.deliver 1; Event.deliver 0 ];
        |]
    with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let violations, _ = Online.feed_run r in
  (* the stream is s0 s1 r1 r0: both violations complete at r1, the
     third event, on channel (0, 1) *)
  check_bool "fifo violation found" true
    (List.exists
       (fun (v : Online.violation) ->
         v.kind = `Fifo && v.earlier = 0 && v.later = 1 && v.at = 2
         && v.channel = (0, 1))
       violations);
  check_bool "causal violation found" true
    (List.exists
       (fun (v : Online.violation) ->
         v.kind = `Causal && v.earlier = 0 && v.later = 1 && v.at = 2
         && v.channel = (0, 1))
       violations)

let test_misuse_detected () =
  let t = Online.create ~nprocs:2 ~nmsgs:2 in
  Online.send t ~msg:0 ~src:0 ~dst:1;
  Alcotest.check_raises "duplicate send"
    (Invalid_argument "Online.send: duplicate send") (fun () ->
      Online.send t ~msg:0 ~src:0 ~dst:1);
  Alcotest.check_raises "deliver unsent"
    (Invalid_argument "Online.deliver: message not sent") (fun () ->
      ignore (Online.deliver t ~msg:1));
  ignore (Online.deliver t ~msg:0);
  Alcotest.check_raises "duplicate delivery"
    (Invalid_argument "Online.deliver: duplicate delivery") (fun () ->
      ignore (Online.deliver t ~msg:0))

let test_accounting () =
  let t = Online.create ~nprocs:2 ~nmsgs:4 in
  check_int "no events yet" 0 (Online.events t);
  Online.send t ~msg:0 ~src:0 ~dst:1;
  Online.send t ~msg:1 ~src:0 ~dst:1;
  check_int "two events" 2 (Online.events t);
  check_int "two pending" 2 (Online.pending t);
  let before = Online.frontier_bytes t in
  check_bool "frontier measured" true (before > 0);
  ignore (Online.deliver t ~msg:0);
  check_int "delivery counted" 3 (Online.events t);
  check_int "one pending" 1 (Online.pending t);
  check_bool "frontier does not shrink reporting" true
    (Online.frontier_bytes t > 0)

let test_scales () =
  (* a 2000-message random run: the offline poset checker would build a
     4000^2 closure; the monitor handles it comfortably *)
  let r = Random_run.causal_run ~nprocs:6 ~nmsgs:2000 ~seed:1 () in
  let violations, _sync = Online.feed_run r in
  check_bool "no causal violations at scale" true
    (not
       (List.exists
          (fun (v : Online.violation) -> v.kind = `Causal)
          violations))

let () =
  Alcotest.run "online"
    [
      ( "unit",
        [
          Alcotest.test_case "exhaustive agreement" `Slow
            test_agreement_exhaustive;
          Alcotest.test_case "violation identities" `Quick
            test_violation_identities;
          Alcotest.test_case "misuse detected" `Quick test_misuse_detected;
          Alcotest.test_case "events and frontier accounting" `Quick
            test_accounting;
          Alcotest.test_case "scales to 2000 messages" `Slow test_scales;
          Alcotest.test_case "crown excludes hanging messages" `Quick
            test_crown_excludes_hangers;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_agreement_random;
            prop_agreement_causal_runs;
            prop_sync_numbering;
            prop_crown_is_cycle;
          ] );
    ]
