type t = { chain : Chain.t; costs : float array array }

let zero chain =
  { chain;
    costs =
      Array.init (Chain.size chain) (fun i ->
          Array.map (fun _ -> 0.) (snd (Chain.successors chain i))) }

let transition t i j =
  let e = Chain.find t.chain i j in
  if e < 0 then 0. else t.costs.(i).(e)

let create ~transition_rewards chain =
  let n = Chain.size chain in
  if Array.length transition_rewards <> n then
    invalid_arg "Reward.create: transition reward shape mismatch";
  let t = zero chain in
  Array.iteri
    (fun i entries ->
      List.iter
        (fun (j, c) ->
          let e = Chain.find chain i j in
          if e >= 0 then t.costs.(i).(e) <- c
          else if c <> 0. then
            invalid_arg
              (Printf.sprintf
                 "Reward.create: nonzero cost %g on zero-probability edge (%d, %d)"
                 c i j))
        entries;
      if Chain.is_absorbing chain i && transition t i i <> 0. then
        invalid_arg
          (Printf.sprintf
             "Reward.create: absorbing state %d has nonzero self-loop cost" i))
    transition_rewards;
  t

let costs t i = t.costs.(i)

let one_step_expected t =
  Array.init (Chain.size t.chain) (fun i ->
      let probs = snd (Chain.successors t.chain i) in
      Numerics.Safe_float.sum (Array.mapi (fun e p -> p *. t.costs.(i).(e)) probs))

let chain t = t.chain
