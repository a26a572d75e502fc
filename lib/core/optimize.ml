module SF = Numerics.Safe_float

type point = { n : int; r : float; cost : float; error_prob : float }

let min_useful_probes (p : Params.t) =
  let loss = Params.loss_probability p in
  if loss <= 0. || p.error_cost <= 1. then 1
  else
    let nu = Float.ceil (SF.div (-.SF.log p.error_cost) (SF.log loss)) in
    max 1 (int_of_float nu)

(* Initial search scale for r: past the round-trip bulk of the delay
   distribution, four conditional means, the polynomial term is
   already decaying, so that is a sound starting point. *)
let default_r_hi (p : Params.t) ~n =
  let bulk = 4. *. p.delay.mean in
  Float.max 1. (bulk *. Float.max 1. (SF.div 8. (float_of_int n)))

(* The r grids of an n-scan, by upper end.  A grid read once takes
   [Cost.mean] per point; from its second n on it keeps one kernel
   cursor per point and steps it to n, so the n that share a grid pay
   one step per point, not a walk from 1.  Both read the same bits. *)
type grid = { hi : float; rs : float array; mutable cursors : Kernel.t array }

let grid_costs grids (p : Params.t) ~n hi =
  match List.find_opt (fun g -> g.hi = hi) !grids with
  | None ->
      let rs = Numerics.Minimize.grid ~samples:512 0. hi in
      grids := { hi; rs; cursors = [||] } :: !grids;
      (rs, Array.map (fun r -> Cost.mean p ~n ~r) rs)
  | Some g ->
      if g.cursors = [||] then g.cursors <- Array.map (fun r -> Kernel.create p ~r) g.rs;
      (g.rs, Array.map (fun k -> Kernel.advance_to k ~n; Kernel.cost k) g.cursors)

(* the grid's best cell polished with Brent; the interval doubles until
   the minimum is interior *)
let r_opt grids (p : Params.t) ~n hi =
  let f r = Cost.mean p ~n ~r in
  let rec search hi attempts =
    let rs, costs = grid_costs grids p ~n hi in
    let result = Numerics.Minimize.grid_then_brent ~f rs costs in
    if result.x >= 0.95 *. hi && attempts < 60 then search (hi *. 2.) (attempts + 1)
    else result
  in
  search hi 0

let optimal_r (p : Params.t) ~n =
  if n < 1 then invalid_arg "Optimize.optimal_r: n must be >= 1";
  r_opt (ref []) p ~n (default_r_hi p ~n)

(* An n-scan goes on while n <= 4096 and the bound at n (optimize.mli),
   less a relative margin of 1e-9, may beat the incumbent (not NaN). *)
let n_cap = 4096
let may_beat bound best = bound *. (1. -. 1e-9) <= best

let optimal_n (p : Params.t) ~r =
  if r < 0. then invalid_arg "Optimize.optimal_n: negative r";
  (* no log twin: one survival call per step until pi_n is +0 *)
  let k = Kernel.create p ~r and per_probe = (1. -. p.q) *. (r +. p.probe_cost) in
  Kernel.advance k;
  let best_n = ref 1 and best_cost = ref (Kernel.cost k) in
  while Kernel.n k < n_cap && may_beat (per_probe *. float_of_int (Kernel.n k + 1)) !best_cost do
    Kernel.advance k;
    let c = Kernel.cost k in
    if c < !best_cost then (best_n := Kernel.n k; best_cost := c)
  done;
  (!best_n, !best_cost)

let optimal_n_sweep (p : Params.t) grid =
  Numerics.Grid.map_sweep (fun r -> optimal_n p ~r) grid

(* a log-twin cursor at the winner reads the bits a twin scan would *)
let log10_error_under_optimal_n (p : Params.t) ~r =
  let n, _ = optimal_n p ~r in
  Reliability.log10_error_probability p ~n ~r

(* the first cheapest of [evaluate n] for n = 1, 2, ... while [go n best] *)
let first_best evaluate go =
  let rec scan best n =
    if not (go n best) then best
    else
      let candidate = evaluate n in
      scan (if candidate.cost < best.cost then candidate else best) (n + 1)
  in
  scan (evaluate 1) 2

(* The largest t with S(t) = S(0), by bisection on the bit patterns,
   which order non-negative floats; 0 if S(0) = 0, where the kernel's
   ratios are 0, not S(t)/S(0). *)
let reply_free_span (d : Dist.Distribution.t) =
  let s0 = d.survival 0. in
  let flat b = d.survival (Int64.float_of_bits b) >= s0 in
  let rec bisect lo hi =
    let mid = Int64.add lo (Int64.shift_right (Int64.sub hi lo) 1) in
    if mid = lo then Int64.float_of_bits lo
    else if flat mid then bisect mid hi
    else bisect lo mid
  in
  let top = Int64.bits_of_float max_float in
  if s0 <= 0. then 0. else if flat top then max_float else bisect 0L top

let global_optimum (p : Params.t) =
  let c = p.probe_cost and q = p.q and t0 = reply_free_span p.delay in
  let bound n =
    let postage = float_of_int n *. c in
    Float.min ((q *. p.error_cost) +. postage) ((1. -. q) *. (t0 +. postage))
  in
  let cap_postage = (1. -. q) *. float_of_int n_cap *. c in
  if may_beat cap_postage (bound 1) then
    invalid_arg
      (Printf.sprintf
         "Optimize.global_optimum: the postage of %d probes at c = %g, %g, is \
          not above the least cost %g (no reply before %g s): no bound ends the n-scan"
         n_cap c cap_postage (bound 1) t0);
  let grids = ref [] in
  let evaluate n =
    let { Numerics.Minimize.x = r; fx = cost } = r_opt grids p ~n (default_r_hi p ~n) in
    { n; r; cost; error_prob = Reliability.error_probability p ~n ~r }
  in
  first_best evaluate (fun n best -> n <= n_cap && may_beat (bound n) best.cost)
