type shifted_exp = { loss : float; delay : float; rate : float }

let check_sample name ~losses samples =
  if Array.length samples = 0 then invalid_arg (name ^ ": empty sample");
  if losses < 0 then invalid_arg (name ^ ": negative losses");
  Array.iter
    (fun x -> if x < 0. || not (Float.is_finite x) then invalid_arg (name ^ ": bad delay"))
    samples

let loss_fraction ~losses n =
  float_of_int losses /. float_of_int (n + losses)

let shifted_exponential_mle ~losses samples =
  check_sample "Fit.shifted_exponential_mle" ~losses samples;
  let n = Array.length samples in
  let d = Array.fold_left Float.min samples.(0) samples in
  let mean = Numerics.Safe_float.mean samples in
  let excess = Float.max 1e-12 (mean -. d) in
  { loss = loss_fraction ~losses n; delay = d; rate = 1. /. excess }

let to_distribution { loss; delay; rate } =
  Families.shifted_exponential ~mass:(1. -. loss) ~rate ~delay ()

type quality = { ks_statistic : float; log_likelihood : float }

let assess ~losses (d : Distribution.t) samples =
  check_sample "Fit.assess" ~losses samples;
  ignore losses;
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let nf = float_of_int n in
  (* KS distance on the conditional CDFs *)
  let ks = ref 0. in
  Array.iteri
    (fun i x ->
      let model = Distribution.conditional_cdf d x in
      let lo = float_of_int i /. nf and hi = float_of_int (i + 1) /. nf in
      ks := Float.max !ks (Float.max (Float.abs (model -. lo)) (Float.abs (model -. hi))))
    sorted;
  (* log likelihood via the density when available, else finite
     differences of the cdf *)
  let log_density x =
    match d.Distribution.density with
    | Some pdf ->
        let v = pdf x /. d.Distribution.mass in
        if v > 0. then log v else -745.
    | None ->
        let h = 1e-6 *. (1. +. Float.abs x) in
        let v =
          (Distribution.conditional_cdf d (x +. h)
          -. Distribution.conditional_cdf d (Float.max 0. (x -. h)))
          /. (2. *. h)
        in
        if v > 0. then log v else -745.
  in
  { ks_statistic = !ks;
    log_likelihood = Numerics.Safe_float.sum (Array.map log_density sorted) }
