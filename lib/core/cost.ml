(* Eq. 3 lives in [Kernel]: a point value is a cursor advanced to n *)
let mean (p : Params.t) ~n ~r =
  if n < 1 then invalid_arg "Cost.mean: n must be >= 1";
  if r < 0. then invalid_arg "Cost.mean: negative listening period";
  let k = Kernel.create p ~r in
  Kernel.advance_to k ~n;
  Kernel.cost k
