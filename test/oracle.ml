(* Test-side oracles, written over the library's product surface.

   Each value here is a reference a test compares a product route
   against, or builds its inputs from; none of them has a caller in an
   executable, so they live with the tests rather than in lib/.  To stay
   an independent check of the closed forms, this module names no
   [Zeroconf.Kernel], [Zeroconf.Cost] or [Zeroconf.Reliability]. *)

module Params = Zeroconf.Params
module D = Dist.Distribution
module SF = Numerics.Safe_float

(* -- tolerances ---------------------------------------------------- *)

(* [Safe_float.approx_eq] with the test's own tolerances:
   [|a - b| <= atol + rtol * max |a| |b|]; [nan] equals nothing, equal
   infinities are equal. *)
let approx_eq ?(rtol = 1e-9) ?(atol = 0.) a b =
  if Float.is_nan a || Float.is_nan b then false
  else if a = b then true
  else if not (Float.is_finite a && Float.is_finite b) then false
  else Float.abs (a -. b) <= atol +. (rtol *. Float.max (Float.abs a) (Float.abs b))

(* -- Eq. 1 and the Sec. 4.2 limits -------------------------------- *)

(* [p_i(r)] evaluated exactly as Eq. 1 is printed: a product of
   conditional CDF increments, against the library's telescoped
   [Probes.no_answer] *)
let no_answer_literal (p : Params.t) ~i ~r =
  if i < 0 then invalid_arg "Oracle.no_answer_literal: negative probe index";
  if r < 0. then invalid_arg "Oracle.no_answer_literal: negative listening period";
  let f = p.delay.cdf in
  let acc = ref 1. in
  for j = 1 to i do
    let fj = f (float_of_int j *. r) and fj1 = f (float_of_int (j - 1) *. r) in
    let denom = 1. -. fj1 in
    let factor = if denom <= 0. then 0. else 1. -. SF.div (fj -. fj1) denom in
    acc := !acc *. SF.clamp_probability factor
  done;
  !acc

(* [lim_(r -> inf) pi_n(r) = (1 - l)^n] *)
let pi_limit (p : Params.t) ~n = D.loss_probability p.delay ** float_of_int n

(* Eq. 4 at the [r -> inf] limit, [E_inf = q (1-l)^n / (1 - q (1 -
   (1-l)^n))]: no amount of waiting gets below it *)
let error_floor (p : Params.t) ~n =
  let pi = pi_limit p ~n in
  SF.clamp_probability (SF.div (p.q *. pi) (1. -. (p.q *. (1. -. pi))))

(* [A_n(r)], the line [C_n] approaches for large [r] (Sec. 4.2), with
   [(1 - (1-l)^n) / l] continued to [n] at [l = 1] *)
let asymptote (p : Params.t) ~n ~r =
  let l = p.delay.mass in
  let loss = 1. -. l in
  let geometric =
    if loss = 0. then float_of_int n
    else SF.div (1. -. (loss ** float_of_int n)) l
  in
  SF.div
    ((r +. p.probe_cost)
    *. ((float_of_int n *. (1. -. p.q)) +. (p.q *. geometric)))
    (1. -. p.q)

(* -- delay distributions ------------------------------------------ *)

(* The self-check every family must pass: CDF monotone, within
   [0, mass], survival in [+0, 1] (never [-0.]) and consistent with the
   CDF, on 200 points of [0, 100] *)
let check (d : D.t) =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let grid = Numerics.Grid.linspace 0. 100. 200 in
  let rec scan i prev =
    if i >= Array.length grid then Ok ()
    else
      let t = grid.(i) in
      let c = d.cdf t and s = d.survival t in
      if Float.is_nan c || c < -1e-12 || c > d.mass +. 1e-9 then
        err "%s: cdf %g out of [0, %g] at t=%g" d.name c d.mass t
      else if not (s >= 0. && s <= 1.) || Float.sign_bit s then
        err "%s: survival %g out of [+0, 1] at t=%g" d.name s t
      else if c +. 1e-9 < prev then
        err "%s: cdf not monotone at t=%g (%g < %g)" d.name t c prev
      else if not (approx_eq ~rtol:1e-6 ~atol:1e-12 (c +. s) 1.) then
        err "%s: cdf + survival = %g <> 1 at t=%g" d.name (c +. s) t
      else scan (i + 1) c
  in
  scan 0 0.

(* The gamma function for [x >= 1/2], by Lanczos' series (g = 7, nine
   terms): relative error about 1e-15. *)
let gamma x =
  let c =
    [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
       771.32342877765313; -176.61502916214059; 12.507343278686905;
       -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]
  in
  let x = x -. 1. in
  let t = x +. 7.5 in
  let a = ref c.(0) in
  for i = 1 to 8 do
    a := !a +. (c.(i) /. (x +. float_of_int i))
  done;
  sqrt (2. *. Float.pi) *. (t ** (x +. 0.5)) *. exp (-.t) *. !a

(* A Weibull delay shifted by [delay], written from its closed form:
   [shape < 1] gives heavy tails, [shape = 1] the exponential law with
   rate [1 / scale].  A reply is lost with probability [1 - mass]; one
   that arrives takes [delay + scale * gamma (1 + 1 / shape)] on
   average. *)
let weibull ?(mass = 1.) ?(delay = 0.) ~shape ~scale () =
  if not (shape > 0. && scale > 0.) then
    invalid_arg "Oracle.weibull: shape and scale must be positive";
  let z t = ((t -. delay) /. scale) ** shape in
  let cdf t = if t <= delay then 0. else mass *. -.Float.expm1 (-.z t) in
  let survival t = if t <= delay then 1. else (1. -. mass) +. (mass *. exp (-.z t)) in
  let sample rng =
    if mass < 1. && Numerics.Rng.float rng >= mass then None
    else
      Some
        (delay
        +. (scale *. ((-.Float.log1p (-.Numerics.Rng.float rng)) ** (1. /. shape))))
  in
  D.v
    ~name:(Printf.sprintf "weibull(k=%g, scale=%g, d=%g)" shape scale delay)
    ~mass
    ~mean:(delay +. (scale *. gamma (1. +. (1. /. shape))))
    ~cdf ~survival ~sample ()

(* A finite mixture (weights normalized); its mass is the weighted mass
   of its components, and its mean, given a reply, their means weighted
   by weight times mass.  A hyperexponential delay is the mixture of two
   exponentials. *)
let mixture components =
  if components = [] then invalid_arg "Oracle.mixture: empty mixture";
  List.iter
    (fun (w, _) ->
      if not (w > 0. && w < infinity) then
        invalid_arg "Oracle.mixture: weight outside (0, inf)")
    components;
  let total = SF.sum_list (List.map fst components) in
  let weighted = List.map (fun (w, d) -> (w /. total, d)) components in
  let mass = SF.sum_list (List.map (fun (w, (d : D.t)) -> w *. d.mass) weighted) in
  let combine f t = SF.sum_list (List.map (fun (w, d) -> w *. f d t) weighted) in
  let sample rng =
    let weights = Array.of_list (List.map fst weighted) in
    let _, (d : D.t) = List.nth weighted (Numerics.Rng.choose_weighted rng weights) in
    d.sample rng
  in
  let name =
    String.concat " + "
      (List.map (fun (w, (d : D.t)) -> Printf.sprintf "%.2f*%s" w d.name) weighted)
  in
  let mean =
    SF.sum_list (List.map (fun (w, (d : D.t)) -> w *. d.mass *. d.mean) weighted)
    /. mass
  in
  D.v ~name ~mass ~mean
    ~cdf:(combine (fun (d : D.t) -> d.cdf))
    ~survival:(combine (fun (d : D.t) -> d.survival))
    ~sample ()

(* -- sampling and statistics -------------------------------------- *)

(* Gaussian variate via Box-Muller over [Rng.float] *)
let normal rng ~mu ~sigma =
  let u1 = 1. -. Numerics.Rng.float rng (* in (0, 1] so log is safe *) in
  let u2 = Numerics.Rng.float rng in
  mu +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

(* Inverse standard-normal CDF (Acklam's rational approximation,
   |error| < 1.15e-9), for p in (0, 1) *)
let normal_quantile p =
  if p <= 0. || p >= 1. then invalid_arg "Oracle.normal_quantile: p outside (0,1)";
  let a = [| -3.969683028665376e+01; 2.209460984245205e+02;
             -2.759285104469687e+02; 1.383577518672690e+02;
             -3.066479806614716e+01; 2.506628277459239e+00 |] in
  let b = [| -5.447609879822406e+01; 1.615858368580409e+02;
             -1.556989798598866e+02; 6.680131188771972e+01;
             -1.328068155288572e+01 |] in
  let c = [| -7.784894002430293e-03; -3.223964580411365e-01;
             -2.400758277161838e+00; -2.549732539343734e+00;
             4.374664141464968e+00; 2.938163982698783e+00 |] in
  let d = [| 7.784695709041462e-03; 3.224671290700398e-01;
             2.445134137142996e+00; 3.754408661907416e+00 |] in
  let p_low = 0.02425 in
  let tail q sign =
    let q = sqrt (-2. *. log q) in
    sign
    *. ((((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
    /. (((((d.(0) *. q) +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.)
  in
  if p < p_low then tail p 1.
  else if p > 1. -. p_low then tail (1. -. p) (-1.)
  else
    let q = p -. 0.5 in
    let r = q *. q in
    (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r +. a.(5))
    *. q
    /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r +. 1.)

(* [Rng.int] as first written, over its own splitmix64 state: the top
   63 bits of a raw output, rejected at or above [max_fair], the largest
   multiple of the bound not above 2^63 - 1 (one division for the
   threshold, one for the draw) *)
let splitmix_mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let splitmix seed = ref (splitmix_mix (Int64.of_int seed))

let splitmix_next state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  splitmix_mix !state

let int_two_divisions state bound =
  let b = Int64.of_int bound in
  let max_fair = Int64.sub Int64.max_int (Int64.rem Int64.max_int b) in
  let rec draw () =
    let raw = Int64.shift_right_logical (splitmix_next state) 1 in
    if raw >= max_fair then draw () else Int64.to_int (Int64.rem raw b)
  in
  draw ()

(* Where a Monte-Carlo sample departs from its trials as records: the
   first slot whose cost or time bits differ, or a total (collisions,
   probes, restarts) that is not the sum over the records *)
let sample_mismatch (s : Netsim.Metrics.sample) (trials : Netsim.Metrics.outcome array) =
  let module M = Netsim.Metrics in
  let bits = Int64.bits_of_float in
  let total f = Array.fold_left (fun acc o -> acc + f o) 0 trials in
  let sum k = s.M.sums.(k) +. s.M.sums.(k + 1) in
  let differs i =
    bits s.M.cost.(i) <> bits trials.(i).M.cost
    || bits s.M.config_time.(i) <> bits trials.(i).M.config_time
  in
  if M.length s <> Array.length trials then Some "trial count"
  else
    match List.find_opt differs (List.init (Array.length trials) Fun.id) with
    | Some i -> Some (Printf.sprintf "trial %d's cost or time" i)
    | None ->
        if s.M.collisions <> total (fun o -> Bool.to_int o.M.collided) then
          Some "collisions"
        else if sum 0 <> float_of_int (total (fun o -> o.M.probes_sent)) then
          Some "probes"
        else if sum 2 <> float_of_int (total (fun o -> o.M.restarts)) then
          Some "restarts"
        else None

(* The empirical CDF of a sample, as a function *)
let ecdf xs =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  fun x ->
    if n = 0 then invalid_arg "Oracle.ecdf: empty sample";
    (* count of entries <= x, by binary search for the upper bound *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if sorted.(mid) <= x then search (mid + 1) hi else search lo mid
    in
    float_of_int (search 0 n) /. float_of_int n

(* -- chains ------------------------------------------------------- *)

(* Per state, the probability of eventually reaching [target]
   (P=? [F target]) *)
let reach chain ~target =
  let n = Dtmc.Chain.size chain in
  Dtmc.Reachability.until chain ~phi:(Array.make n true)
    ~psi:(Array.init n (fun i -> List.mem i target))

(* First passage to [target] (which need not be absorbing):
   [h = b + Q h] on the states that reach the target almost surely and
   are not in it, [0.] on the target, [infinity] elsewhere.  The
   almost-sure set is the complement of the states that can reach,
   avoiding the target, a state that cannot reach the target. *)
let first_passage chain ~target b =
  if target = [] then invalid_arg "Oracle.first_passage: empty target";
  let n = Dtmc.Chain.size chain in
  let is_target = Array.make n false in
  List.iter
    (fun t ->
      if t < 0 || t >= n then
        invalid_arg "Oracle.first_passage: target index out of range";
      is_target.(t) <- true)
    target;
  let preds = Array.make n [] in
  for i = 0 to n - 1 do
    Array.iter (fun j -> preds.(j) <- i :: preds.(j)) (fst (Dtmc.Chain.successors chain i))
  done;
  (* the states that reach [goal] through non-target states *)
  let reaching goal =
    let seen = Array.copy goal in
    let rec visit j =
      List.iter
        (fun i ->
          if (not seen.(i)) && not is_target.(i) then begin
            seen.(i) <- true;
            visit i
          end)
        preds.(j)
    in
    Array.iteri (fun j g -> if g then visit j) goal;
    seen
  in
  let hopeless = Array.map not (reaching is_target) in
  let doomed = reaching hopeless in
  let unknown = Array.init n (fun i -> (not doomed.(i)) && not is_target.(i)) in
  let h = Dtmc.Sparse.solve ~unknown ~row:(Dtmc.Chain.successors chain) b in
  Array.init n (fun i ->
      if is_target.(i) then 0. else if unknown.(i) then h.(i) else infinity)

(* Expected number of steps to first hit [target] *)
let expected_steps chain ~target =
  first_passage chain ~target (Array.make (Dtmc.Chain.size chain) 1.)

(* Expected reward accumulated until first hitting [target] *)
let expected_reward reward ~target =
  first_passage (Dtmc.Reward.chain reward) ~target
    (Dtmc.Reward.one_step_expected reward)

(* -- decisions ------------------------------------------------------ *)

(* Howard's policy iteration on the MDP [mdp] built from [actions]:
   evaluate the policy exactly ([Mdp.evaluate_policy]), switch each
   state to a strictly better action, repeat until stable.  Returns the
   values and the policy, to compare with value iteration's. *)
let policy_iteration ~num_states ~actions mdp =
  let q values s a =
    SF.sum_list
      (List.map
         (fun (tr : Dtmc.Mdp.transition) -> tr.prob *. (tr.cost +. values.(tr.dst)))
         (snd (List.nth (actions s) a)))
  in
  let policy = Array.init num_states (fun s -> if actions s = [] then -1 else 0) in
  let rec round k =
    if k >= 1_000 then failwith "Oracle.policy_iteration: no convergence";
    let values = Dtmc.Mdp.evaluate_policy mdp ~policy in
    let changed = ref false in
    for s = 0 to num_states - 1 do
      if policy.(s) >= 0 then begin
        let best = ref 0 in
        List.iteri (fun a _ -> if q values s a < q values s !best then best := a) (actions s);
        let current = q values s policy.(s) in
        (* strictly better only, so ties never oscillate *)
        if q values s !best < current -. (1e-15 *. (1. +. Float.abs current)) then begin
          policy.(s) <- !best;
          changed := true
        end
      end
    done;
    if !changed then round (k + 1) else (values, Array.copy policy)
  in
  round 0

(* -- derivatives ---------------------------------------------------- *)

(* The plain central difference [(f (x + h) - f (x - h)) / 2h], step
   [h = eps^(1/3) max 1 |x|]: the reference derivative of the
   sensitivity tests, against which [Derivative.richardson] must do
   better *)
let central ~f x =
  let h = (SF.epsilon ** (1. /. 3.)) *. Float.max 1. (Float.abs x) in
  (f (x +. h) -. f (x -. h)) /. (2. *. h)

(* -- input builders ----------------------------------------------- *)

(* 64 uniformly random bits, from two 32-bit draws *)
let bits64 rng =
  let half () = Int64.of_int (Numerics.Rng.int rng 0x1_0000_0000) in
  let hi = half () in
  Int64.logor (Int64.shift_left hi 32) (half ())
