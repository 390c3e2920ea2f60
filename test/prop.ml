(* A minimal in-repo property-test harness: a seeded generator plus a
   counting runner, stdlib-only. Each case draws from a PRNG derived
   deterministically from (seed, case index), so a failure report names a
   case index that reproduces in isolation and runs are identical across
   machines. Kept deliberately tiny — qcheck exists in the test stack, but
   the protocol properties below want exact seed control and zero
   shrinking magic. *)

exception Failed of string

type 'a gen = Random.State.t -> 'a

(* independent per-case state: reseeding with [| seed; i |] decorrelates
   neighbouring cases far better than drawing them from one stream *)
let case_rng ~seed i = Random.State.make [| seed; i; 0x9e3779b9 |]

let default_count = 200

let check ?(count = default_count) ?(seed = 42) ~name (gen : 'a gen)
    ?(pp = fun _ -> "<no printer>") (prop : 'a -> bool) =
  for i = 0 to count - 1 do
    let rng = case_rng ~seed i in
    let x = gen rng in
    let ok =
      try prop x
      with e ->
        raise
          (Failed
             (Printf.sprintf "%s: case %d (seed %d) raised %s on %s" name i
                seed (Printexc.to_string e) (pp x)))
    in
    if not ok then
      raise
        (Failed
           (Printf.sprintf "%s: case %d (seed %d) falsified by %s" name i
              seed (pp x)))
  done

(* runner bridging into alcotest's [test_case] shape without depending on
   it: alcotest reports any exception, including [Failed], as a failure
   with its message *)
let test ?count ?seed ~name gen ?pp prop () =
  check ?count ?seed ~name gen ?pp prop

(* ---- generator combinators (just the ones the suite needs) ---- *)

let int_range lo hi rng =
  if hi < lo then invalid_arg "Prop.int_range";
  lo + Random.State.int rng (hi - lo + 1)

let oneof (xs : 'a list) rng = List.nth xs (Random.State.int rng (List.length xs))

(* weighted choice: [frequency [(3, a); (1, b)]] draws [a] three times as
   often as [b]; weights must be positive *)
let frequency (xs : (int * 'a gen) list) rng =
  let total = List.fold_left (fun s (w, _) -> s + w) 0 xs in
  if total <= 0 then invalid_arg "Prop.frequency";
  let k = Random.State.int rng total in
  let rec pick k = function
    | [] -> invalid_arg "Prop.frequency"
    | (w, g) :: rest -> if k < w then g else pick (k - w) rest
  in
  (pick k xs) rng

let pair g1 g2 rng =
  let a = g1 rng in
  let b = g2 rng in
  (a, b)

let map f g rng = f (g rng)

(* a list of [0 .. max] draws of [g] *)
let list_of ~max g rng = List.init (int_range 0 max rng) (fun _ -> g rng)
