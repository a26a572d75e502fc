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

let derivative p ~n ~r =
  check "Cost.derivative" n r;
  Numerics.Derivative.richardson ~f:(fun r -> mean p ~n ~r) r
