let check name n r =
  if n < 1 then invalid_arg (name ^ ": n must be >= 1");
  if r < 0. then invalid_arg (name ^ ": negative listening period")

(* Eq. 4 lives in [Kernel]: a point value is a cursor advanced to n *)
let at ?log_twin (p : Params.t) ~n ~r =
  let k = Kernel.create ?log_twin p ~r in
  Kernel.advance_to k ~n;
  k

let error_probability p ~n ~r =
  check "Reliability.error_probability" n r;
  Kernel.error_probability (at p ~n ~r)

let log10_error_probability p ~n ~r =
  check "Reliability.log10_error_probability" n r;
  Kernel.log10_error (at ~log_twin:true p ~n ~r)
