(* h = b + Q h on the states that reach the target a.s. and are not in
   it; 0 on the target, infinity elsewhere *)
let first_passage chain ~target b =
  if target = [] then invalid_arg "Hitting: empty target";
  let n = Chain.size chain in
  let is_target = Array.make n false in
  List.iter
    (fun t ->
      if t < 0 || t >= n then invalid_arg "Hitting: target index out of range";
      is_target.(t) <- true)
    target;
  let certain = Reachability.certainly chain ~target in
  let unknown = Array.init n (fun i -> certain.(i) && not is_target.(i)) in
  let h = Sparse.solve ~unknown ~row:(Chain.successors chain) b in
  Array.init n (fun i ->
      if is_target.(i) then 0. else if unknown.(i) then h.(i) else infinity)

let expected_steps chain ~target =
  first_passage chain ~target (Array.make (Chain.size chain) 1.)

let expected_reward reward ~target =
  first_passage (Reward.chain reward) ~target (Reward.one_step_expected reward)
