type t = { n : int; r : float; pmf : float array; tail : float }

(* DP over (DRM state, periods elapsed).  States: 0 = start, 1..n = the
   probe states, absorption recorded straight into the pmf.  Durations:
   entering probe state i costs one period; start -> ok costs n periods
   (all n probes are sent); aborts (probe state -> start) and the final
   nth -> error hop are instantaneous. *)
let default_horizon = 4096

let periods (p : Params.t) ~n ~r =
  let horizon = default_horizon in
  if n < 1 then invalid_arg "Latency.periods: n < 1";
  if r < 0. then invalid_arg "Latency.periods: negative r";
  if horizon < n then invalid_arg "Latency.periods: horizon below n";
  let q = p.Params.q in
  let p_i = Array.init (n + 1) (fun i -> Probes.no_answer p ~i ~r) in
  let pmf = Array.make (horizon + 1) 0. in
  (* mass.(s) = probability of being in state s (0 = start, i = i-th
     probe state) having consumed exactly [t] periods *)
  let current = Array.make (n + 1) 0. in
  let next = Array.make (n + 1) 0. in
  current.(0) <- 1.;
  let leftover = ref 0. in
  for t = 0 to horizon do
    Array.fill next 0 (n + 1) 0.;
    (* instantaneous moves first: aborts return to start within the same
       period count; the start mass then spends periods by probing *)
    (* resolve the chain of instantaneous hops: start mass at t *)
    let start_mass = ref current.(0) in
    (* probe states progress or abort: state i with mass m *)
    for i = 1 to n do
      let m = current.(i) in
      if m > 0. then
        if i = n then begin
          (* unanswered last probe -> error (instant); answered -> abort *)
          if t <= horizon then pmf.(t) <- pmf.(t) +. (m *. p_i.(n));
          start_mass := !start_mass +. (m *. (1. -. p_i.(n)))
        end
        else begin
          (* forward hop consumes a period *)
          if t + 1 <= horizon then
            next.(i + 1) <- next.(i + 1) +. (m *. p_i.(i))
          else leftover := !leftover +. (m *. p_i.(i));
          start_mass := !start_mass +. (m *. (1. -. p_i.(i)))
        end
    done;
    (* start: pick an address; free -> ok after n periods, occupied ->
       first probe state after one period *)
    let m = !start_mass in
    if m > 0. then begin
      if t + n <= horizon then pmf.(t + n) <- pmf.(t + n) +. (m *. (1. -. q))
      else leftover := !leftover +. (m *. (1. -. q));
      if t + 1 <= horizon then next.(1) <- next.(1) +. (m *. q)
      else leftover := !leftover +. (m *. q)
    end;
    Array.blit next 0 current 0 (n + 1)
  done;
  leftover := !leftover +. Numerics.Safe_float.sum current;
  { n; r; pmf; tail = !leftover }

let cdf t seconds =
  if seconds < 0. then 0.
  else begin
    let max_periods =
      if t.r = 0. then Array.length t.pmf - 1
      else min (Array.length t.pmf - 1) (int_of_float (seconds /. t.r))
    in
    let acc = ref 0. in
    for k = 0 to max_periods do
      acc := !acc +. t.pmf.(k)
    done;
    Numerics.Safe_float.clamp_probability !acc
  end

let quantile t p =
  if not (Numerics.Safe_float.is_probability p) then
    invalid_arg "Latency.quantile: p outside [0, 1]";
  let captured = Numerics.Safe_float.sum t.pmf in
  if p > captured then
    invalid_arg "Latency.quantile: p beyond captured mass (raise the horizon)";
  let acc = ref 0. and k = ref 0 in
  while !acc < p && !k < Array.length t.pmf do
    acc := !acc +. t.pmf.(!k);
    if !acc < p then incr k
  done;
  float_of_int !k *. t.r

let mean t =
  let acc = ref 0. in
  Array.iteri (fun k mass -> acc := !acc +. (float_of_int k *. t.r *. mass)) t.pmf;
  !acc

(* the cdf only counts captured mass, so its complement naturally
   includes the beyond-horizon tail *)
let exceeds t seconds = 1. -. cdf t seconds
