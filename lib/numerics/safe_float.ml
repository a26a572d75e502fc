let epsilon = Stdlib.epsilon_float

(* Sanctioned spellings of the NaN-capable float primitives.  The R1
   lint rule (tools/lint) bans the raw [log]/[exp]/[**]/[/.] spellings
   in probability-carrying modules, so every transcendental or division
   on the Eq. 3/4 path funnels through these four names and the domain
   contract has a single audit point.  They are re-declared externals /
   trivial aliases of the Stdlib primitives: same instruction, same
   result bit for bit, no wrapper cost in the kernels. *)
external log : float -> float = "caml_log_float" "log"
[@@unboxed] [@@noalloc]

external exp : float -> float = "caml_exp_float" "exp"
[@@unboxed] [@@noalloc]

external div : float -> float -> float = "%divfloat"

let approx_eq a b =
  if Float.is_nan a || Float.is_nan b then false
  else if a = b then true (* covers equal infinities *)
  else if not (Float.is_finite a && Float.is_finite b) then false
  else Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

let clamp ~lo ~hi x =
  if lo > hi then invalid_arg "Safe_float.clamp: lo > hi";
  if x < lo then lo else if x > hi then hi else x

let clamp_probability x = clamp ~lo:0. ~hi:1. x

(* Neumaier's improvement of Kahan summation: track the compensation of
   whichever operand has the larger magnitude. *)
let sum xs =
  let s = ref 0. and comp = ref 0. in
  for i = 0 to Array.length xs - 1 do
    let x = xs.(i) in
    let t = !s +. x in
    if Float.abs !s >= Float.abs x then comp := !comp +. ((!s -. t) +. x)
    else comp := !comp +. ((x -. t) +. !s);
    s := t
  done;
  !s +. !comp

let sum_by f xs =
  let s = ref 0. and comp = ref 0. in
  for i = 0 to Array.length xs - 1 do
    let x = f xs.(i) in
    let t = !s +. x in
    if Float.abs !s >= Float.abs x then comp := !comp +. ((!s -. t) +. x)
    else comp := !comp +. ((x -. t) +. !s);
    s := t
  done;
  !s +. !comp

let sum_list xs =
  let s = ref 0. and comp = ref 0. in
  List.iter
    (fun x ->
      let t = !s +. x in
      if Float.abs !s >= Float.abs x then comp := !comp +. ((!s -. t) +. x)
      else comp := !comp +. ((x -. t) +. !s);
      s := t)
    xs;
  !s +. !comp

let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Safe_float.mean: empty array";
  sum xs /. float_of_int n

let is_probability x = (not (Float.is_nan x)) && x >= 0. && x <= 1.
