module SF = Numerics.Safe_float

type point = { n : int; r : float; cost : float; error_prob : float }

let min_useful_probes (p : Params.t) =
  let loss = Params.loss_probability p in
  if loss <= 0. || p.error_cost <= 1. then 1
  else
    let nu = Float.ceil (SF.div (-.SF.log p.error_cost) (SF.log loss)) in
    max 1 (int_of_float nu)

(* Initial search scale for r: past the round-trip bulk of the delay
   distribution the polynomial term is already decaying, so a high
   quantile of the conditional delay is a sound starting point. *)
let default_r_hi (p : Params.t) ~n =
  let bulk =
    match p.delay.mean with
    | Some m -> 4. *. m
    | None -> (
        try Dist.Distribution.quantile p.delay (0.99 *. p.delay.mass)
        with Invalid_argument _ -> 1.)
  in
  Float.max 1. (bulk *. Float.max 1. (SF.div 8. (float_of_int n)))

let optimal_r ?r_hi (p : Params.t) ~n =
  if n < 1 then invalid_arg "Optimize.optimal_r: n must be >= 1";
  let f r = Cost.mean p ~n ~r in
  let rec search hi attempts =
    let result = Numerics.Minimize.grid_then_brent ~samples:512 ~f 0. hi in
    if result.x >= 0.95 *. hi && attempts < 60 then search (hi *. 2.) (attempts + 1)
    else result
  in
  let hi = match r_hi with Some h -> h | None -> default_r_hi p ~n in
  search hi 0

type n_scan = { n : int; cost : float; log10_error : float }

let optimal_n_scan ?(n_max = 4096) ?(patience = 24) (p : Params.t) ~r =
  if r < 0. then invalid_arg "Optimize.optimal_n: negative r";
  (* One streaming kernel cursor serves the whole scan: the first-useful
     probe search, every cost evaluation, and the error probability of
     the winner all read off the same O(1)-per-step recurrences, so the
     scan costs one survival evaluation per candidate n instead of the
     former O(n) rebuild per candidate. *)
  let k = Kernel.create ~log_twin:true p ~r in
  Kernel.advance k;
  let best = ref (Kernel.copy k) in
  let best_cost = ref (Kernel.cost k) in
  (* While i*r is below the round-trip delay, p_i(r) = 1 and the cost
     rises linearly in n on a plateau at height ~ qE; the first n whose
     horizon can see a reply is where the descent can start.  Below that
     point n = 1 is the (bad) optimum of the plateau.  [ratio] is
     exactly [Probes.no_answer ~i:n], so the cursor walks the old
     first-useful search; at r = 0 no horizon ever sees a reply and the
     scan starts at n_max, as before. *)
  if r = 0. then
    while Kernel.n k < n_max do
      Kernel.advance k
    done
  else
    while (not (Kernel.ratio k < 1.)) && Kernel.n k < n_max do
      Kernel.advance k
    done;
  let misses = ref 0 in
  let at_end = ref false in
  while (not !at_end) && !misses < patience && Kernel.n k <= n_max do
    let c = Kernel.cost k in
    if c < !best_cost then begin
      best := Kernel.copy k;
      best_cost := c;
      misses := 0
    end else incr misses;
    if Kernel.n k < n_max then Kernel.advance k else at_end := true
  done;
  (* the winner's Eq. 4 readings come off its snapshot *)
  let best = !best in
  { n = Kernel.n best; cost = !best_cost; log10_error = Kernel.log10_error best }

let optimal_n ?n_max ?patience (p : Params.t) ~r =
  let scan = optimal_n_scan ?n_max ?patience p ~r in
  (scan.n, scan.cost)

let optimal_n_sweep (p : Params.t) grid =
  Numerics.Grid.map_sweep (fun r -> optimal_n p ~r) grid

let log10_error_under_optimal_n (p : Params.t) ~r =
  (optimal_n_scan p ~r).log10_error

let global_optimum (p : Params.t) =
  let n_max = 4096 and patience = 8 in
  let evaluate n =
    let { Numerics.Minimize.x = r; fx = cost; _ } = optimal_r p ~n in
    { n; r; cost; error_prob = Reliability.error_probability p ~n ~r }
  in
  let best = ref (evaluate 1) in
  let misses = ref 0 in
  let n = ref 2 in
  (* skip straight to nu when it prunes a long useless prefix *)
  let nu = min_useful_probes p in
  if nu > 8 then begin
    let at_nu = evaluate nu in
    if at_nu.cost < !best.cost then best := at_nu;
    n := nu + 1
  end;
  while !misses < patience && !n <= n_max do
    let candidate = evaluate !n in
    if candidate.cost < !best.cost then begin
      best := candidate;
      misses := 0
    end else incr misses;
    incr n
  done;
  !best

let constrained_optimum ~budget (p : Params.t) =
  if budget <= 0. then invalid_arg "Optimize.constrained_optimum: budget <= 0";
  let evaluate n =
    let r_cap = SF.div budget (float_of_int n) in
    let unconstrained = optimal_r ~r_hi:r_cap p ~n in
    let r = Float.min unconstrained.Numerics.Minimize.x r_cap in
    let k = Kernel.create p ~r in
    Kernel.advance_to k ~n;
    { n; r; cost = Kernel.cost k; error_prob = Kernel.error_probability k }
  in
  let best = ref (evaluate 1) in
  for n = 2 to 32 do
    let candidate = evaluate n in
    if candidate.cost < !best.cost then best := candidate
  done;
  !best

let probes_for_error_target ?(n_max = 256) (p : Params.t) ~r ~target =
  if not (SF.is_probability target) then
    invalid_arg "Optimize.probes_for_error_target: target outside [0, 1]";
  if r < 0. then
    invalid_arg "Optimize.probes_for_error_target: negative listening period";
  (* one cursor instead of an O(n) rebuild per tested n *)
  let k = Kernel.create p ~r in
  let rec search () =
    if Kernel.n k >= n_max then None
    else begin
      Kernel.advance k;
      if Kernel.error_probability k <= target then Some (Kernel.n k)
      else search ()
    end
  in
  search ()
