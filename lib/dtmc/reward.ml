module Matrix = Numerics.Matrix

type t = { chain : Chain.t; transition_rewards : Matrix.t }

let create ~transition_rewards chain =
  let n = Chain.size chain in
  if Matrix.rows transition_rewards <> n || Matrix.cols transition_rewards <> n
  then invalid_arg "Reward.create: transition reward shape mismatch";
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let c = Matrix.get transition_rewards i j in
      if Chain.prob chain i j = 0. && c <> 0. then
        invalid_arg
          (Printf.sprintf
             "Reward.create: nonzero cost %g on zero-probability edge (%d, %d)"
             c i j)
    done;
    if Chain.is_absorbing chain i && Matrix.get transition_rewards i i <> 0. then
      invalid_arg
        (Printf.sprintf
           "Reward.create: absorbing state %d has nonzero self-loop cost" i)
  done;
  { chain; transition_rewards = Matrix.copy transition_rewards }

let zero chain =
  let n = Chain.size chain in
  { chain; transition_rewards = Matrix.create ~rows:n ~cols:n }

let transition t i j = Matrix.get t.transition_rewards i j

let one_step_expected t =
  let n = Chain.size t.chain in
  Array.init n (fun i ->
      Numerics.Safe_float.sum_list
        (List.map
           (fun (j, p) -> p *. Matrix.get t.transition_rewards i j)
           (Chain.successors t.chain i)))

let chain t = t.chain
