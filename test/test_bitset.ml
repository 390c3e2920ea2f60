open Mo_order

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))

let test_empty () =
  let s = Bitset.create 10 in
  check_bool "empty" true (Bitset.is_empty s);
  check_int "cardinal" 0 (Bitset.cardinal s);
  check_bool "mem" false (Bitset.mem s 3);
  check_int "capacity" 10 (Bitset.capacity s)

let test_add_remove () =
  let s = Bitset.create 70 in
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 69;
  check_bool "mem 0" true (Bitset.mem s 0);
  check_bool "mem 63" true (Bitset.mem s 63);
  check_bool "mem 69" true (Bitset.mem s 69);
  check_bool "mem 5" false (Bitset.mem s 5);
  check_int "cardinal" 3 (Bitset.cardinal s);
  Bitset.remove s 63;
  check_bool "removed" false (Bitset.mem s 63);
  check_int "cardinal after remove" 2 (Bitset.cardinal s)

let test_add_idempotent () =
  let s = Bitset.create 8 in
  Bitset.add s 4;
  Bitset.add s 4;
  check_int "cardinal" 1 (Bitset.cardinal s)

let test_out_of_range () =
  let s = Bitset.create 8 in
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: index -1 out of [0,8)")
    (fun () -> ignore (Bitset.mem s (-1)));
  Alcotest.check_raises "too large" (Invalid_argument "Bitset: index 8 out of [0,8)")
    (fun () -> Bitset.add s 8)

let test_union_inter () =
  let a = Bitset.of_list 20 [ 1; 3; 5; 19 ] in
  let b = Bitset.of_list 20 [ 3; 4; 19 ] in
  let u = Bitset.copy a in
  Bitset.union_into ~dst:u b;
  check_ints "union" [ 1; 3; 4; 5; 19 ] (Bitset.elements u);
  let i = Bitset.copy a in
  Bitset.inter_into ~dst:i b;
  check_ints "inter" [ 3; 19 ] (Bitset.elements i)

let test_subset_equal () =
  let a = Bitset.of_list 16 [ 2; 7 ] in
  let b = Bitset.of_list 16 [ 2; 7; 9 ] in
  check_bool "subset" true (Bitset.subset a b);
  check_bool "not subset" false (Bitset.subset b a);
  check_bool "equal self" true (Bitset.equal a (Bitset.copy a));
  check_bool "not equal" false (Bitset.equal a b)

let test_iter_fold () =
  let a = Bitset.of_list 40 [ 0; 8; 39 ] in
  let sum = Bitset.fold (fun i acc -> i + acc) a 0 in
  check_int "fold sum" 47 sum;
  let seen = ref [] in
  Bitset.iter (fun i -> seen := i :: !seen) a;
  check_ints "iter order" [ 39; 8; 0 ] !seen

let prop_union_commutative =
  QCheck.Test.make ~name:"union commutes" ~count:200
    QCheck.(pair (list (int_bound 63)) (list (int_bound 63)))
    (fun (xs, ys) ->
      let a = Mo_order.Bitset.of_list 64 xs
      and b = Mo_order.Bitset.of_list 64 ys in
      let ab = Mo_order.Bitset.copy a in
      Mo_order.Bitset.union_into ~dst:ab b;
      let ba = Mo_order.Bitset.copy b in
      Mo_order.Bitset.union_into ~dst:ba a;
      Mo_order.Bitset.equal ab ba)

let prop_subset_union =
  QCheck.Test.make ~name:"a subset of a∪b" ~count:200
    QCheck.(pair (list (int_bound 63)) (list (int_bound 63)))
    (fun (xs, ys) ->
      let a = Mo_order.Bitset.of_list 64 xs
      and b = Mo_order.Bitset.of_list 64 ys in
      let u = Mo_order.Bitset.copy a in
      Mo_order.Bitset.union_into ~dst:u b;
      Mo_order.Bitset.subset a u && Mo_order.Bitset.subset b u)

let prop_elements_sorted =
  QCheck.Test.make ~name:"elements sorted and deduplicated" ~count:200
    QCheck.(list (int_bound 127))
    (fun xs ->
      let s = Mo_order.Bitset.of_list 128 xs in
      let e = Mo_order.Bitset.elements s in
      e = List.sort_uniq Int.compare xs)

(* every single bit, alone and under every higher bit (up to the sign
   bit): the lowest one is found *)
let test_lowest_bit () =
  for i = 0 to 62 do
    Alcotest.(check int) "alone" i (Mo_order.Bitset.lowest_bit (1 lsl i));
    for j = i + 1 to 62 do
      Alcotest.(check int)
        "under a higher bit" i
        (Mo_order.Bitset.lowest_bit ((1 lsl i) lor (1 lsl j)))
    done
  done;
  Alcotest.(check int) "all bits" 0 (Mo_order.Bitset.lowest_bit (-1))

let () =
  Alcotest.run "bitset"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "add/remove" `Quick test_add_remove;
          Alcotest.test_case "add idempotent" `Quick test_add_idempotent;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
          Alcotest.test_case "union/inter" `Quick test_union_inter;
          Alcotest.test_case "subset/equal" `Quick test_subset_equal;
          Alcotest.test_case "iter/fold" `Quick test_iter_fold;
          Alcotest.test_case "lowest_bit" `Quick test_lowest_bit;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_union_commutative; prop_subset_union; prop_elements_sorted ]
      );
    ]
