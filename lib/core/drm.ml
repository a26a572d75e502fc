type t = {
  chain : Dtmc.Chain.t;
  reward : Dtmc.Reward.t;
  start : int;
  error : int;
  ok : int;
}

let ordinal i =
  let suffix =
    match i mod 100 with
    | 11 | 12 | 13 -> "th"
    | _ -> ( match i mod 10 with 1 -> "st" | 2 -> "nd" | 3 -> "rd" | _ -> "th")
  in
  Printf.sprintf "%d%s" i suffix

let build (p : Params.t) ~n ~r =
  if n < 1 then invalid_arg "Drm.build: n must be >= 1";
  if r < 0. then invalid_arg "Drm.build: negative listening period";
  let b = Dtmc.Builder.create () in
  let labels = Array.init (n + 1) ordinal in
  let probe_state i = labels.(i) in
  (* declare in the paper's row order: start, 1st .. nth, error, ok *)
  Dtmc.Builder.add_state b "start";
  for i = 1 to n do
    Dtmc.Builder.add_state b (probe_state i)
  done;
  Dtmc.Builder.add_state b "error";
  Dtmc.Builder.add_state b "ok";
  let step_cost = r +. p.probe_cost in
  if p.q > 0. then
    Dtmc.Builder.add_edge b ~src:"start" ~dst:(probe_state 1) ~prob:p.q
      ~cost:step_cost;
  if p.q < 1. then
    Dtmc.Builder.add_edge b ~src:"start" ~dst:"ok" ~prob:(1. -. p.q)
      ~cost:(float_of_int n *. step_cost);
  for i = 1 to n do
    let p_i = Probes.no_answer p ~i ~r in
    let dst = if i = n then "error" else probe_state (i + 1) in
    let cost = if i = n then p.error_cost else step_cost in
    if p_i > 0. then
      Dtmc.Builder.add_edge b ~src:(probe_state i) ~dst ~prob:p_i ~cost;
    if p_i < 1. then
      Dtmc.Builder.add_edge b ~src:(probe_state i) ~dst:"start"
        ~prob:(1. -. p_i)
  done;
  let chain, reward = Dtmc.Builder.build b in
  let states = Dtmc.Chain.states chain in
  { chain;
    reward;
    start = Dtmc.State_space.index states "start";
    error = Dtmc.State_space.index states "error";
    ok = Dtmc.State_space.index states "ok" }

let mean_cost t = Dtmc.Absorbing.expected_total_reward t.reward ~from:t.start

let error_probability t =
  Dtmc.Absorbing.absorption_probability t.chain ~from:t.start ~into:t.error

let cost_variance t = Dtmc.Absorbing.variance_total_reward t.reward ~from:t.start
let expected_steps t = Dtmc.Absorbing.expected_steps t.chain ~from:t.start

let simulate_cost ~trials ~rng t =
  Dtmc.Simulate.estimate_total_reward ~trials ~rng t.reward ~from:t.start

let simulate_error ~trials ~rng t =
  Dtmc.Simulate.estimate_absorption ~trials ~rng t.chain ~from:t.start
    ~into:t.error
