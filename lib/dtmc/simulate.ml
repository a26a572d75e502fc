type path = { states : int array; total_reward : float; absorbed : bool }

let run ?(max_steps = 1_000_000) ~rng reward ~from =
  let chain = Reward.chain reward in
  let visited = ref [ from ] in
  let total = ref 0. in
  let rec go state steps =
    if Chain.is_absorbing chain state then true
    else if steps >= max_steps then false
    else begin
      let cols, weights = Chain.successors chain state in
      let picked = Numerics.Rng.choose_weighted rng weights in
      let next = cols.(picked) in
      total := !total +. (Reward.costs reward state).(picked);
      visited := next :: !visited;
      go next (steps + 1)
    end
  in
  let absorbed = go from 0 in
  { states = Array.of_list (List.rev !visited); total_reward = !total; absorbed }

type estimate = { trials : int; mean : float; ci_lo : float; ci_hi : float }

let estimate_total_reward ?max_steps ~trials ~rng reward ~from =
  if trials <= 0 then invalid_arg "Simulate.estimate_total_reward: trials <= 0";
  let samples =
    Array.init trials (fun _ -> (run ?max_steps ~rng reward ~from).total_reward)
  in
  let ci_lo, ci_hi = Numerics.Stats.mean_ci samples in
  { trials; mean = Numerics.Safe_float.mean samples; ci_lo; ci_hi }

let estimate_absorption ?max_steps ~trials ~rng chain ~from ~into =
  if trials <= 0 then invalid_arg "Simulate.estimate_absorption: trials <= 0";
  let reward = Reward.zero chain in
  let hits = ref 0 in
  for _ = 1 to trials do
    let p = run ?max_steps ~rng reward ~from in
    if p.absorbed && p.states.(Array.length p.states - 1) = into then incr hits
  done;
  let ci_lo, ci_hi = Numerics.Stats.proportion_ci ~successes:!hits trials in
  { trials; mean = float_of_int !hits /. float_of_int trials; ci_lo; ci_hi }
