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
  let s = ref 0. and comp = ref 0. in
  for i = 0 to Array.length xs - 1 do
    let x = ((xs.(i) -. mean) *. unit) ** 2. in
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

(* Inverse standard-normal CDF: Peter Acklam's rational approximation. *)
let normal_quantile p =
  if p <= 0. || p >= 1. then invalid_arg "Stats.normal_quantile: p outside (0,1)";
  let a = [| -3.969683028665376e+01; 2.209460984245205e+02;
             -2.759285104469687e+02; 1.383577518672690e+02;
             -3.066479806614716e+01; 2.506628277459239e+00 |] in
  let b = [| -5.447609879822406e+01; 1.615858368580409e+02;
             -1.556989798598866e+02; 6.680131188771972e+01;
             -1.328068155288572e+01 |] in
  let c = [| -7.784894002430293e-03; -3.223964580411365e-01;
             -2.400758277161838e+00; -2.549732539343734e+00;
             4.374664141464968e+00; 2.938163982698783e+00 |] in
  let d = [| 7.784695709041462e-03; 3.224671290700398e-01;
             2.445134137142996e+00; 3.754408661907416e+00 |] in
  let p_low = 0.02425 in
  let tail q sign =
    let q = sqrt (-2. *. log q) in
    sign
    *. ((((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
    /. (((((d.(0) *. q) +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.)
  in
  if p < p_low then tail p 1.
  else if p > 1. -. p_low then tail (1. -. p) (-1.)
  else
    let q = p -. 0.5 in
    let r = q *. q in
    (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r +. a.(5))
    *. q
    /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r +. 1.)

let confidence = 0.95

let summary_ci s =
  if s.n < 2 then (s.mean, s.mean)
  else
    let z = normal_quantile (0.5 +. (confidence /. 2.)) in
    let half = z *. s.std /. sqrt (float_of_int s.n) in
    (s.mean -. half, s.mean +. half)

let proportion_ci ~successes trials =
  if trials <= 0 then invalid_arg "Stats.proportion_ci: trials <= 0";
  if successes < 0 || successes > trials then
    invalid_arg "Stats.proportion_ci: successes outside [0, trials]";
  let z = normal_quantile (0.5 +. (confidence /. 2.)) in
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

let ecdf xs =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  fun x ->
    if n = 0 then invalid_arg "Stats.ecdf: empty sample";
    (* count of entries <= x, by binary search for the upper bound *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if sorted.(mid) <= x then search (mid + 1) hi else search lo mid
    in
    float_of_int (search 0 n) /. float_of_int n
