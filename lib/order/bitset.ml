type t = { cap : int; words : Bytes.t }

(* A byte-backed representation keeps the implementation portable and avoids
   boxing; all hot loops below operate word-wise on bytes. *)

let bytes_needed cap = (cap + 7) / 8

let create cap =
  if cap < 0 then invalid_arg "Bitset.create: negative capacity";
  { cap; words = Bytes.make (bytes_needed cap) '\000' }

let capacity t = t.cap

let check t i =
  if i < 0 || i >= t.cap then
    invalid_arg (Printf.sprintf "Bitset: index %d out of [0,%d)" i t.cap)

let mem t i =
  check t i;
  Char.code (Bytes.unsafe_get t.words (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add t i =
  check t i;
  let b = i lsr 3 in
  let v = Char.code (Bytes.unsafe_get t.words b) lor (1 lsl (i land 7)) in
  Bytes.unsafe_set t.words b (Char.unsafe_chr v)

let remove t i =
  check t i;
  let b = i lsr 3 in
  let v =
    Char.code (Bytes.unsafe_get t.words b) land lnot (1 lsl (i land 7))
  in
  Bytes.unsafe_set t.words b (Char.unsafe_chr (v land 0xff))

let same_cap a b =
  if a.cap <> b.cap then invalid_arg "Bitset: capacity mismatch"

let union_into ~dst src =
  same_cap dst src;
  for b = 0 to Bytes.length dst.words - 1 do
    let v =
      Char.code (Bytes.unsafe_get dst.words b)
      lor Char.code (Bytes.unsafe_get src.words b)
    in
    Bytes.unsafe_set dst.words b (Char.unsafe_chr v)
  done

let inter_into ~dst src =
  same_cap dst src;
  for b = 0 to Bytes.length dst.words - 1 do
    let v =
      Char.code (Bytes.unsafe_get dst.words b)
      land Char.code (Bytes.unsafe_get src.words b)
    in
    Bytes.unsafe_set dst.words b (Char.unsafe_chr v)
  done

let diff_into ~dst src =
  same_cap dst src;
  for b = 0 to Bytes.length dst.words - 1 do
    let v =
      Char.code (Bytes.unsafe_get dst.words b)
      land lnot (Char.code (Bytes.unsafe_get src.words b))
    in
    Bytes.unsafe_set dst.words b (Char.unsafe_chr (v land 0xff))
  done

let set_all t =
  let nbytes = Bytes.length t.words in
  if nbytes > 0 then begin
    Bytes.fill t.words 0 nbytes '\255';
    (* clear the tail bits beyond capacity so equal/is_empty stay exact *)
    let rem = t.cap land 7 in
    if rem <> 0 then
      Bytes.unsafe_set t.words (nbytes - 1)
        (Char.unsafe_chr ((1 lsl rem) - 1))
  end

let copy t = { cap = t.cap; words = Bytes.copy t.words }

let copy_into ~dst src =
  same_cap dst src;
  Bytes.blit src.words 0 dst.words 0 (Bytes.length src.words)

let popcount_byte =
  let table = Array.make 256 0 in
  for i = 1 to 255 do
    table.(i) <- table.(i lsr 1) + (i land 1)
  done;
  fun c -> table.(Char.code c)

(* index of the lowest set bit of a non-zero int word: isolate it, then a
   32-bit de Bruijn lookup on whichever half holds it. The lookup index
   is 5 bits by construction, and the body has no local function, so
   callers in bit-scan loops get it inlined. *)
let debruijn =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\
   \031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let[@inline] debruijn_index h =
  Char.code
    (String.unsafe_get debruijn (((h * 0x077CB531) land 0xFFFF_FFFF) lsr 27))

let[@inline] lowest_bit w =
  let b = w land -w in
  if b land 0xFFFF_FFFF <> 0 then debruijn_index b
  else 32 + debruijn_index (b lsr 32)

let next t i =
  if i < 0 then invalid_arg "Bitset.next: negative index";
  let nbytes = Bytes.length t.words in
  let b = ref (i lsr 3) in
  (* the first byte keeps only the bits at or above [i] *)
  let v =
    ref
      (if !b < nbytes then
         Char.code (Bytes.unsafe_get t.words !b) land (0xff lsl (i land 7))
       else 0)
  in
  while !v = 0 && !b < nbytes - 1 do
    incr b;
    v := Char.code (Bytes.unsafe_get t.words !b)
  done;
  if !v = 0 then t.cap else (!b lsl 3) + lowest_bit !v

(* no bit beyond the capacity is ever set *)
let is_empty t = next t 0 = t.cap

let cardinal t =
  let n = ref 0 in
  for i = 0 to Bytes.length t.words - 1 do
    n := !n + popcount_byte (Bytes.unsafe_get t.words i)
  done;
  !n

let equal a b = a.cap = b.cap && Bytes.equal a.words b.words

let subset a b =
  same_cap a b;
  let ok = ref true in
  for i = 0 to Bytes.length a.words - 1 do
    let x = Char.code (Bytes.unsafe_get a.words i)
    and y = Char.code (Bytes.unsafe_get b.words i) in
    if x land lnot y <> 0 then ok := false
  done;
  !ok

let iter f t =
  for b = 0 to Bytes.length t.words - 1 do
    let v = Char.code (Bytes.unsafe_get t.words b) in
    if v <> 0 then
      for k = 0 to 7 do
        if v land (1 lsl k) <> 0 then f ((b lsl 3) + k)
      done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list cap l =
  let t = create cap in
  List.iter (add t) l;
  t

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (elements t)
