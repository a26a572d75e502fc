module SF = Numerics.Safe_float

let check name n r =
  if n < 1 then invalid_arg (name ^ ": n must be >= 1");
  if r < 0. then invalid_arg (name ^ ": negative listening period")

(* Eq. 3 lives in [Kernel]: a point value is a cursor advanced to n *)
let mean (p : Params.t) ~n ~r =
  check "Cost.mean" n r;
  let k = Kernel.create p ~r in
  Kernel.advance_to k ~n;
  Kernel.cost k

let mean_log (p : Params.t) ~n ~r =
  check "Cost.mean_log" n r;
  let module L = Numerics.Logspace in
  let q = L.of_float p.q in
  let one_minus_q = L.of_float (1. -. p.q) in
  (* pi_i in log space, using the same telescoped survival ratios; the
     survival closure and S(0) are loop-invariant, and the prefix sum
     accumulates in place in the fold order of [L.sum] *)
  let s = p.delay.survival in
  let s0 = s 0. in
  let log_pi = ref 0. in
  let sum_acc = ref L.zero in
  for i = 1 to n do
    sum_acc := L.add !sum_acc (L.of_log !log_pi);
    let ratio = SF.div (s (float_of_int i *. r)) s0 in
    log_pi := !log_pi +. (if ratio <= 0. then neg_infinity else SF.log ratio)
  done;
  let pi_n = L.of_log !log_pi in
  let sum_pi = !sum_acc in
  let r_plus_c = L.of_float (r +. p.probe_cost) in
  let n_term = L.mul (L.of_float (float_of_int n)) one_minus_q in
  let numerator =
    L.add
      (L.mul r_plus_c (L.add n_term (L.mul q sum_pi)))
      (L.mul (L.mul q (L.of_float p.error_cost)) pi_n)
  in
  let denominator = L.sub L.one (L.mul q (L.sub L.one pi_n)) in
  L.div numerator denominator

let asymptote (p : Params.t) ~n ~r =
  check "Cost.asymptote" n r;
  let l = p.delay.mass in
  let loss = 1. -. l in
  (* (1 - (1-l)^n) / l, continuous at l = 1 *)
  let geometric =
    if loss = 0. then float_of_int n
    else SF.div (1. -. SF.pow loss (float_of_int n)) l
  in
  SF.div
    ((r +. p.probe_cost)
    *. ((float_of_int n *. (1. -. p.q)) +. (p.q *. geometric)))
    (1. -. p.q)

let at_zero (p : Params.t) = p.q *. p.error_cost

let derivative p ~n ~r =
  check "Cost.derivative" n r;
  Numerics.Derivative.richardson ~f:(fun r -> mean p ~n ~r) r
