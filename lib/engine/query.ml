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
   allowed *)
let check_n n =
  if n < 1 then invalid_arg (Printf.sprintf "Query: n = %d < 1" n);
  if n > max_points then
    invalid_arg
      (Printf.sprintf "Query: n = %d > max_points = %d" n max_points)

let check_r r =
  (* r = 0 is the paper's boundary case C_n(0) = n c + q E (pi_i = 1 for
     every i); every deterministic route below accepts it *)
  if not (Float.is_finite r && r >= 0.) then
    invalid_arg (Printf.sprintf "Query: r = %g not non-negative and finite" r)

let quantity_name = function
  | Mean_cost -> "mean-cost"
  | Error_probability -> "error-probability"
  | Log10_error -> "log10-error"
  | Cost_variance -> "cost-variance"
  | Latency_mean -> "latency-mean"

(* A trial's cost is a sum of attempts, each costing at most n (r + c)
   + E.  Where that bound overflows, a cost sample holds inf and its
   mean or variance comes out as inf - inf, so the cost quantities
   refuse the point. *)
let check_cost t n r =
  match t.quantity with
  | Mean_cost | Cost_variance ->
      let p = t.scenario in
      let bound =
        (float_of_int n *. (r +. p.Zeroconf.Params.probe_cost))
        +. p.Zeroconf.Params.error_cost
      in
      if not (Float.is_finite bound) then
        invalid_arg
          (Printf.sprintf
             "Query: %s at n = %d, r = %g: the largest attempt cost \
              n (r + c) + E = %g is not finite"
             (quantity_name t.quantity) n r bound)
  | Error_probability | Log10_error | Latency_mean -> ()

let size t =
  match t.domain with
  | Point _ -> 1
  | N_sweep { ns; _ } -> Array.length ns
  | R_sweep { rs; _ } -> Array.length rs

let validate t =
  (match t.domain with
  | Point { n; r } ->
      check_n n;
      check_r r;
      check_cost t n r
  | N_sweep { ns; r } ->
      if Array.length ns = 0 then invalid_arg "Query: empty n sweep";
      Array.iter check_n ns;
      check_r r;
      Array.iter (fun n -> check_cost t n r) ns
  | R_sweep { n; rs } ->
      check_n n;
      if Array.length rs = 0 then invalid_arg "Query: empty r sweep";
      Array.iter check_r rs;
      Array.iter (fun r -> check_cost t n r) rs);
  if size t > max_points then
    invalid_arg
      (Printf.sprintf "Query: %d points > max_points = %d" (size t) max_points);
  match t.accuracy with
  | Sampled { trials; _ } when trials < 1 ->
      invalid_arg (Printf.sprintf "Query: trials = %d < 1" trials)
  | Sampled { trials; _ } when trials > max_trials ->
      invalid_arg
        (Printf.sprintf "Query: trials = %d > max_trials = %d" trials
           max_trials)
  | Sampled _ | Exact -> ()

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
