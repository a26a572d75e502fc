module SF = Numerics.Safe_float

type refinement = {
  blacklist : bool;
  rate_limit : (int * float) option;
  occupied : int;
  pool : int;
}

let validate_refinement r =
  if r.pool < 1 then invalid_arg "Attempts: pool < 1";
  if r.occupied < 0 || r.occupied >= r.pool then
    invalid_arg "Attempts: occupied outside [0, pool)";
  match r.rate_limit with
  | Some (threshold, delay) ->
      if threshold < 0 || not (Float.is_finite delay && delay >= 0.) then
        invalid_arg "Attempts: bad rate limit"
  | None -> ()

let no_refinement ~occupied ~pool () =
  let r = { blacklist = false; rate_limit = None; occupied; pool } in
  validate_refinement r;
  r

type analysis = {
  mean_cost : float;
  error_probability : float;
  mean_time : float;
  mean_attempts : float;
  truncated_mass : float;
}

let max_attempts = 10_000

let analyze (p : Params.t) refinement ~n ~r =
  validate_refinement refinement;
  if n < 1 then invalid_arg "Attempts.analyze: n < 1";
  if r < 0. then invalid_arg "Attempts.analyze: negative r";
  (* an attempt costs at most n (r + c) + E: past that bound every mean
     cost is inf *)
  let bound = (float_of_int n *. (r +. p.Params.probe_cost)) +. p.Params.error_cost in
  if not (Float.is_finite bound) then
    invalid_arg
      (Printf.sprintf
         "Attempts.analyze: the largest attempt cost n (r + c) + E = %g is not \
          finite"
         bound);
  let k = Kernel.create p ~r in
  Kernel.advance_to k ~n;
  let pi_n = Kernel.pi k in
  let sum_pi = Kernel.sum_pi k in
  let step_cost = r +. p.Params.probe_cost in
  let nf = float_of_int n in
  (* per-attempt conditional expectations, given occupancy prob q_i:
     Abel summation turns sum_k (pi_(k-1) - pi_k) k + n pi_n into
     sum_(i<n) pi_i, exactly the Eq. 3 structure *)
  let attempt_cost q_i =
    ((1. -. q_i) *. nf *. step_cost)
    +. (q_i *. ((step_cost *. sum_pi) +. (pi_n *. p.Params.error_cost)))
  in
  let attempt_time q_i =
    ((1. -. q_i) *. nf *. r) +. (q_i *. r *. sum_pi)
  in
  let q_of_attempt i =
    (* i is 1-based; with blacklisting, i - 1 occupied addresses are
       known and excluded from the draw *)
    if not refinement.blacklist then
      SF.div (float_of_int refinement.occupied) (float_of_int refinement.pool)
    else
      let known = min (i - 1) refinement.occupied in
      let remaining_occupied = refinement.occupied - known in
      let remaining_pool = refinement.pool - known in
      SF.div (float_of_int remaining_occupied) (float_of_int remaining_pool)
  in
  let delay_before_attempt i =
    match refinement.rate_limit with
    | Some (threshold, delay) when i - 1 >= threshold && i > 1 -> delay
    | Some _ | None -> 0.
  in
  let cost = ref 0. and time = ref 0. and error = ref 0. in
  let attempts = ref 0. in
  let reach = ref 1. in
  let i = ref 1 in
  while !reach > 1e-15 && !i <= max_attempts do
    let q_i = q_of_attempt !i in
    let delay = delay_before_attempt !i in
    attempts := !attempts +. !reach;
    cost := !cost +. (!reach *. (delay +. attempt_cost q_i));
    time := !time +. (!reach *. (delay +. attempt_time q_i));
    error := !error +. (!reach *. q_i *. pi_n);
    reach := !reach *. q_i *. (1. -. pi_n);
    incr i
  done;
  { mean_cost = !cost;
    error_probability = !error;
    mean_time = !time;
    mean_attempts = !attempts;
    truncated_mass = !reach }

let compare_refinements p ~occupied ~pool ~n ~r () =
  let base = { blacklist = false; rate_limit = None; occupied; pool } in
  [ ("baseline", analyze p base ~n ~r);
    ("blacklist", analyze p { base with blacklist = true } ~n ~r);
    ("rate-limit", analyze p { base with rate_limit = Some (10, 60.) } ~n ~r);
    ( "draft (both)",
      analyze p { base with blacklist = true; rate_limit = Some (10, 60.) } ~n ~r
    ) ]
