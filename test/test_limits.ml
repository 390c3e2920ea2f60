open Mo_order

let check_bool = Alcotest.(check bool)

let crown2 () =
  Run.Abstract.create_exn ~nmsgs:2
    [ (Event.send 0, Event.deliver 1); (Event.send 1, Event.deliver 0) ]

let causal_violation () =
  Run.Abstract.create_exn ~nmsgs:2
    [ (Event.send 0, Event.send 1); (Event.deliver 1, Event.deliver 0) ]

let chain () =
  (* x0 wholly before x1 *)
  Run.Abstract.create_exn ~nmsgs:2 [ (Event.deliver 0, Event.send 1) ]

let test_async () =
  check_bool "crown in X_async" true (Limits.is_async (crown2 ()));
  check_bool "violation in X_async" true (Limits.is_async (causal_violation ()))

let test_causal () =
  check_bool "crown is causal" true (Limits.is_causal (crown2 ()));
  check_bool "violation is not causal" false
    (Limits.is_causal (causal_violation ()));
  check_bool "chain is causal" true (Limits.is_causal (chain ()));
  match Limits.check_causal (causal_violation ()) with
  | Error v -> Alcotest.(check (list int)) "witness pair" [ 0; 1 ] v.cycle
  | Ok () -> Alcotest.fail "violation not detected"

let test_sync () =
  check_bool "crown not sync" false (Limits.is_sync (crown2 ()));
  check_bool "chain sync" true (Limits.is_sync (chain ()));
  check_bool "violation not sync" false (Limits.is_sync (causal_violation ()));
  (match Limits.check_sync (crown2 ()) with
  | Error v ->
      Alcotest.(check int) "crown length" 2 (List.length v.cycle)
  | Ok _ -> Alcotest.fail "crown not detected");
  match Limits.check_sync (chain ()) with
  | Ok t ->
      Alcotest.(check bool) "numbering respects order" true (t.(0) < t.(1))
  | Error _ -> Alcotest.fail "chain should be sync"

let test_classify () =
  Alcotest.(check string)
    "crown" "X_co - X_sync"
    (Limits.cls_to_string (Limits.classify (crown2 ())));
  Alcotest.(check string)
    "violation" "X_async - X_co"
    (Limits.cls_to_string (Limits.classify (causal_violation ())));
  Alcotest.(check string)
    "chain" "X_sync"
    (Limits.cls_to_string (Limits.classify (chain ())))

let test_sync_cycle_extraction () =
  (* regression: the reported crown must itself be a cycle of the message
     graph (the first walk implementation could cut the path wrongly) *)
  let check_cycle a =
    match Limits.check_sync a with
    | Ok _ -> Alcotest.fail "expected a crown"
    | Error v ->
        let edges = Run.Abstract.message_graph a in
        let arr = Array.of_list v.cycle in
        let k = Array.length arr in
        Alcotest.(check bool) "length >= 2" true (k >= 2);
        for i = 0 to k - 1 do
          check_bool
            (Printf.sprintf "edge %d->%d in graph" arr.(i) arr.((i + 1) mod k))
            true
            (List.mem (arr.(i), arr.((i + 1) mod k)) edges)
        done
  in
  check_cycle (crown2 ());
  (* 3-crown *)
  check_cycle
    (Run.Abstract.create_exn ~nmsgs:3
       [
         (Event.send 0, Event.deliver 1);
         (Event.send 1, Event.deliver 2);
         (Event.send 2, Event.deliver 0);
       ]);
  (* a crown x1/x2 with x0 sent after x1's delivery: x0 hangs below the
     crown with no successor, and the search must back out of it *)
  check_cycle
    (Run.Abstract.create_exn ~nmsgs:3
       [
         (Event.send 1, Event.deliver 2);
         (Event.send 2, Event.deliver 1);
         (Event.deliver 1, Event.send 0);
       ]);
  (* crown buried among extra sync messages *)
  check_cycle
    (Run.Abstract.create_exn ~nmsgs:4
       [
         (Event.deliver 2, Event.send 3);
         (Event.deliver 3, Event.send 0);
         (Event.send 0, Event.deliver 1);
         (Event.send 1, Event.deliver 0);
       ])

let test_sync_numbering_is_witness () =
  (* on a bigger sync run, the numbering satisfies the SYNC condition *)
  let a =
    Run.Abstract.create_exn ~nmsgs:3
      [
        (Event.deliver 0, Event.send 1);
        (Event.deliver 1, Event.send 2);
      ]
  in
  match Limits.check_sync a with
  | Error _ -> Alcotest.fail "should be sync"
  | Ok t ->
      let events = Run.Abstract.events a in
      List.iter
        (fun (h : Event.t) ->
          List.iter
            (fun (g : Event.t) ->
              if h.msg <> g.msg && Run.Abstract.lt a h g then
                check_bool "T monotone" true (t.(h.msg) < t.(g.msg)))
            events)
        events

(* Containment X_sync ⊆ X_co ⊆ X_async over all small concrete runs — the
   ordering the whole theory rests on (§3.4). *)
let prop_containment =
  QCheck.Test.make ~name:"X_sync ⊆ X_co over enumerated runs" ~count:200
    (QCheck.make
       (QCheck.Gen.oneofl
          (Enumerate.abstract_runs ~nprocs:3 ~nmsgs:2 ()
          @ Enumerate.abstract_runs ~nprocs:2 ~nmsgs:3 ())))
    (fun a -> if Limits.is_sync a then Limits.is_causal a else true)

(* a concrete run where every message is delivered before the next send is
   always sync *)
let prop_serialized_runs_sync =
  QCheck.Test.make ~name:"serialized runs are sync" ~count:50
    QCheck.(int_range 1 5)
    (fun n ->
      let msgs = Array.init n (fun i -> (i mod 2, 1 - (i mod 2))) in
      let sched =
        List.concat
          (List.init n (fun i -> [ Run.Do_send i; Run.Do_deliver i ]))
      in
      match Run.of_schedule ~nprocs:2 ~msgs sched with
      | Ok r -> Limits.is_sync (Run.to_abstract r)
      | Error _ -> false)

let () =
  Alcotest.run "limits"
    [
      ( "unit",
        [
          Alcotest.test_case "async" `Quick test_async;
          Alcotest.test_case "causal" `Quick test_causal;
          Alcotest.test_case "sync" `Quick test_sync;
          Alcotest.test_case "classify" `Quick test_classify;
          Alcotest.test_case "sync cycle extraction" `Quick
            test_sync_cycle_extraction;
          Alcotest.test_case "sync numbering" `Quick
            test_sync_numbering_is_witness;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_containment; prop_serialized_runs_sync ] );
    ]
