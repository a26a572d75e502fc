type quantity =
  | Mean_cost
  | Error_probability
  | Log10_error
  | Cost_variance
  | Latency_mean

type domain =
  | Point of { n : int; r : float }
  | N_sweep of { ns : int array; r : float }
  | R_sweep of { n : int; rs : float array }

type accuracy = Exact | Sampled of { trials : int; seed : int }

type t = {
  quantity : quantity;
  scenario : Zeroconf.Params.t;
  domain : domain;
  accuracy : accuracy;
}

let max_points = 1_048_576
let max_trials = 1 lsl 24

(* one point at n costs n kernel steps, as many as the largest n-sweep
   allowed.  The checks are inlined into the loops below and build
   their message only on the way out, so a valid point allocates
   nothing. *)
let bad_n n =
  if n < 1 then invalid_arg (Printf.sprintf "Query: n = %d < 1" n);
  invalid_arg (Printf.sprintf "Query: n = %d > max_points = %d" n max_points)

let[@inline] check_n n = if n < 1 || n > max_points then bad_n n

(* r = 0 is the paper's boundary case C_n(0) = n c + q E (pi_i = 1 for
   every i); every deterministic route below accepts it *)
let bad_r r =
  invalid_arg (Printf.sprintf "Query: r = %g not non-negative and finite" r)

let[@inline] check_r r = if not (Float.is_finite r && r >= 0.) then bad_r r

let quantity_name = function
  | Mean_cost -> "mean-cost"
  | Error_probability -> "error-probability"
  | Log10_error -> "log10-error"
  | Cost_variance -> "cost-variance"
  | Latency_mean -> "latency-mean"

let overflow quantity n r what bound =
  invalid_arg
    (Printf.sprintf "Query: %s at n = %d, r = %g: the %s = %g is not finite"
       (quantity_name quantity) n r what bound)

let horizon = float_of_int Zeroconf.Latency.default_horizon

let[@inline] check_latency_horizon ~n ~r =
  let bound = horizon *. r in
  if not (Float.is_finite bound) then
    overflow Latency_mean n r
      (Printf.sprintf "configuration time at the horizon %.0f r" horizon)
      bound

(* Every n first, then every r, then the sample bounds: a plan with
   several faults reports the one [validate] always reported.

   A trial's cost is a sum of attempts, each costing at most n (r + c)
   + E.  Where that bound overflows, a cost sample holds inf and its
   mean or variance comes out as inf - inf, so the cost quantities
   refuse the point.  The mean latency sums k r over every period count
   k up to [Latency]'s horizon, weighted by its probability, so
   k r = inf at a count of probability 0 gives inf * 0 = nan: the
   latency refuses the point where horizon * r overflows.

   Run t's points are n_lo.(t) .. last t at r.(t).  A check that holds
   at the run's ends holds throughout (the cost bound's magnitude grows
   with n), so only a run failing there is walked, to name its first
   failing point. *)
let[@inline] last n_lo off t = n_lo.(t) + off.(t + 1) - off.(t) - 1

let validate_runs quantity (p : Zeroconf.Params.t) ~sampled ~trials ~n_lo ~off
    ~r ~lo ~hi =
  for t = lo to hi - 1 do
    if n_lo.(t) < 1 || last n_lo off t > max_points then
      for n = n_lo.(t) to last n_lo off t do
        check_n n
      done
  done;
  for t = lo to hi - 1 do
    check_r r.(t)
  done;
  (match quantity with
  | Mean_cost | Cost_variance ->
      for t = lo to hi - 1 do
        let x = r.(t) +. p.probe_cost in
        if
          not
            (Float.is_finite
               ((float_of_int (last n_lo off t) *. x) +. p.error_cost))
        then
          for n = n_lo.(t) to last n_lo off t do
            let bound = (float_of_int n *. x) +. p.error_cost in
            if not (Float.is_finite bound) then
              overflow quantity n r.(t) "largest attempt cost n (r + c) + E"
                bound
          done
      done
  | Latency_mean ->
      for t = lo to hi - 1 do
        check_latency_horizon ~n:n_lo.(t) ~r:r.(t)
      done
  | Error_probability | Log10_error -> ());
  let points = off.(hi) - off.(lo) in
  if points > max_points then
    invalid_arg
      (Printf.sprintf "Query: %d points > max_points = %d" points max_points);
  if sampled && trials < 1 then
    invalid_arg (Printf.sprintf "Query: trials = %d < 1" trials);
  if sampled && trials > max_trials then
    invalid_arg
      (Printf.sprintf "Query: trials = %d > max_trials = %d" trials max_trials)

let size t =
  match t.domain with
  | Point _ -> 1
  | N_sweep { ns; _ } -> Array.length ns
  | R_sweep { rs; _ } -> Array.length rs

let validate t =
  (* each point a run of its own *)
  let n_lo, r =
    match t.domain with
    | Point { n; r } -> ([| n |], [| r |])
    | N_sweep { ns; r } ->
        if Array.length ns = 0 then invalid_arg "Query: empty n sweep";
        (ns, Array.make (Array.length ns) r)
    | R_sweep { n; rs } ->
        check_n n;
        if Array.length rs = 0 then invalid_arg "Query: empty r sweep";
        (Array.make (Array.length rs) n, rs)
  in
  let sampled, trials =
    match t.accuracy with
    | Exact -> (false, 0)
    | Sampled { trials; _ } -> (true, trials)
  in
  validate_runs t.quantity t.scenario ~sampled ~trials ~n_lo
    ~off:(Array.init (Array.length n_lo + 1) Fun.id)
    ~r ~lo:0 ~hi:(Array.length n_lo)

let make quantity scenario domain accuracy =
  let t = { quantity; scenario; domain; accuracy } in
  validate t;
  t

let point ?(accuracy = Exact) quantity scenario ~n ~r =
  make quantity scenario (Point { n; r }) accuracy

let n_sweep ?(accuracy = Exact) quantity scenario ~ns ~r =
  make quantity scenario (N_sweep { ns; r }) accuracy

let r_sweep ?(accuracy = Exact) quantity scenario ~n ~rs =
  make quantity scenario (R_sweep { n; rs }) accuracy

let points t =
  match t.domain with
  | Point { n; r } -> [| (n, r) |]
  | N_sweep { ns; r } -> Array.map (fun n -> (n, r)) ns
  | R_sweep { n; rs } -> Array.map (fun r -> (n, r)) rs

let quantity_of_name = function
  | "mean-cost" | "cost" -> Some Mean_cost
  | "error-probability" | "error" -> Some Error_probability
  | "log10-error" -> Some Log10_error
  | "cost-variance" | "variance" -> Some Cost_variance
  | "latency-mean" | "latency" -> Some Latency_mean
  | _ -> None

let pp ppf t =
  let domain ppf = function
    | Point { n; r } -> Format.fprintf ppf "(n = %d, r = %g)" n r
    | N_sweep { ns; r } ->
        Format.fprintf ppf "(n in %d..%d, r = %g)"
          (Array.fold_left min max_int ns)
          (Array.fold_left max min_int ns)
          r
    | R_sweep { n; rs } ->
        Format.fprintf ppf "(n = %d, r in [%g, %g], %d points)" n rs.(0)
          rs.(Array.length rs - 1) (Array.length rs)
  in
  let accuracy ppf = function
    | Exact -> Format.pp_print_string ppf "exact"
    | Sampled { trials; seed } ->
        Format.fprintf ppf "sampled (%d trials, seed %d)" trials seed
  in
  Format.fprintf ppf "%s of %s at %a, %a" (quantity_name t.quantity)
    t.scenario.Zeroconf.Params.name domain t.domain accuracy t.accuracy
