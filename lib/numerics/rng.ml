(* The splitmix64 state lives in 8 bytes, read and written as a native
   int64 in place: a mutable [int64] field would box a fresh value on
   every draw, while [Bytes.get_int64_ne]/[set_int64_ne] compile to plain
   loads and stores of the unboxed word. *)
type t = Bytes.t

(* splitmix64 (Steele, Lea, Flood 2014): a tiny generator with excellent
   statistical behaviour for its cost, and trivially splittable. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

let create seed = of_state (mix (Int64.of_int seed))

(* Inlined into every draw below, so the state and the output stay
   unboxed from load to use. *)
let[@inline] next t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix state

let split t = of_state (mix (next t))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Rejection sampling on the top 63 bits against modulo bias, one
     division per draw: [raw - rem], the multiple of [b] at or below
     [raw], is [max_fair] (the largest multiple not above 2^63 - 1)
     exactly when adding [b] passes 2^63 - 1, so these rejections are
     the two-division test's [raw >= max_fair], powers of two included.
     A loop over unboxed locals, so a draw allocates nothing. *)
  let b = Int64.of_int bound in
  let top = Int64.sub Int64.max_int b in
  let raw = ref (Int64.shift_right_logical (next t) 1) in
  let rem = ref (Int64.rem !raw b) in
  while Int64.sub !raw !rem > top do
    raw := Int64.shift_right_logical (next t) 1;
    rem := Int64.rem !raw b
  done;
  Int64.to_int !rem

(* inlined into the transforms below, so only their results are boxed *)
let[@inline] float t =
  (* top 53 bits -> [0, 1) *)
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. 0x1p-53

let uniform t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.uniform: lo > hi";
  lo +. ((hi -. lo) *. float t)

let bool t p =
  if not (Safe_float.is_probability p) then invalid_arg "Rng.bool: p not in [0,1]";
  float t < p

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate <= 0";
  (* -log U / rate; use 1 - float to exclude 0 *)
  -.Float.log1p (-.float t) /. rate

let choose_weighted t weights =
  let total =
    Array.fold_left
      (fun acc w ->
        if w < 0. then invalid_arg "Rng.choose_weighted: negative weight";
        acc +. w)
      0. weights
  in
  if total <= 0. then invalid_arg "Rng.choose_weighted: zero total weight";
  let target = float t *. total in
  let n = Array.length weights in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
