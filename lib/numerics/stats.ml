type summary = {
  n : int;
  mean : float;
  variance : float;
  std : float;
  min : float;
  max : float;
}

(* Neumaier sum of the squared deviations from [mean], each multiplied
   by [unit] first, in index order: the additions [Safe_float.sum] makes
   over the mapped array, without building it or boxing a value per
   element.  The deviations stay [(x -. mean) ** 2.] (a product by
   [unit = 1.] is exact): [pow] and [x *. x] differ in the last bit on
   some inputs, and every Monte-Carlo bound rests on these bits. *)
let sum_squared_deviations xs mean unit =
  let s = ref 0. and comp = ref 0. and last = ref nan and sq = ref nan in
  for i = 0 to Array.length xs - 1 do
    (* a run of equal elements, most of a Monte-Carlo cost column, takes one [pow] *)
    if xs.(i) <> !last then (last := xs.(i); sq := ((xs.(i) -. mean) *. unit) ** 2.);
    let x = !sq in
    let t = !s +. x in
    if Float.abs !s >= Float.abs x then comp := !comp +. ((!s -. t) +. x)
    else comp := !comp +. ((x -. t) +. !s);
    s := t
  done;
  !s +. !comp

(* the unbiased variance and its square root, for n >= 2.  Past about
   1e154 the squares overflow (and the compensation turns their sum into
   inf - inf = nan), so then, and only then, the sum is taken again over
   the deviations scaled by the largest of them: the variance overflows
   to infinity, but the standard deviation is the scale times a finite
   root. *)
let variance_std xs mean =
  let n1 = float_of_int (Array.length xs - 1) in
  let plain = sum_squared_deviations xs mean 1. /. n1 in
  if Float.is_finite plain || not (Float.is_finite mean) then (plain, sqrt plain)
  else begin
    let scale = ref 0. in
    for i = 0 to Array.length xs - 1 do
      scale := Float.max !scale (Float.abs (xs.(i) -. mean))
    done;
    let scaled = sum_squared_deviations xs mean (1. /. !scale) /. n1 in
    (!scale *. !scale *. scaled, !scale *. sqrt scaled)
  end

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty sample";
  let mean = Safe_float.sum xs /. float_of_int n in
  (* a sum past max_float is taken again over the values divided by n *)
  let mean =
    if Float.is_finite mean then mean
    else Safe_float.sum_by (fun x -> x /. float_of_int n) xs
  in
  let variance, std = if n < 2 then (0., 0.) else variance_std xs mean in
  let lo = ref xs.(0) and hi = ref xs.(0) in
  for i = 0 to n - 1 do
    lo := Float.min !lo xs.(i);
    hi := Float.max !hi xs.(i)
  done;
  { n; mean; variance; std; min = !lo; max = !hi }

(* The 97.5% standard-normal quantile behind every 95% interval below,
   as Acklam's rational approximation gives it (|error| < 1.15e-9): the
   same bits the intervals were first computed with. *)
let z95 = 0x1.f5c03325b95a6p+0

let summary_ci s =
  if s.n < 2 then (s.mean, s.mean)
  else
    let half = z95 *. s.std /. sqrt (float_of_int s.n) in
    (s.mean -. half, s.mean +. half)

let proportion_ci ~successes trials =
  if trials <= 0 then invalid_arg "Stats.proportion_ci: trials <= 0";
  if successes < 0 || successes > trials then
    invalid_arg "Stats.proportion_ci: successes outside [0, trials]";
  let z = z95 in
  let n = float_of_int trials in
  let p = float_of_int successes /. n in
  let z2 = z *. z in
  let denom = 1. +. (z2 /. n) in
  let centre = (p +. (z2 /. (2. *. n))) /. denom in
  let half =
    z *. sqrt ((p *. (1. -. p) /. n) +. (z2 /. (4. *. n *. n))) /. denom
  in
  (Safe_float.clamp_probability (centre -. half),
   Safe_float.clamp_probability (centre +. half))

let quantile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.quantile: empty sample";
  if not (Safe_float.is_probability p) then
    invalid_arg "Stats.quantile: p outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let h = p *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor h) in
  let hi = min (lo + 1) (n - 1) in
  let frac = h -. float_of_int lo in
  ((1. -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))
