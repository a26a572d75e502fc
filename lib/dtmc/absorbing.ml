(* [x = b + Q x] on the transient states; [x] is zero on absorbing
   ones. *)
let solve chain b =
  let absorbing = Chain.absorbing_states chain in
  if absorbing = [] then invalid_arg "Absorbing: chain has no absorbing state";
  Array.iteri
    (fun i stuck ->
      if stuck then
        invalid_arg
          (Printf.sprintf "Absorbing: state %s cannot reach absorption"
             (Chain.label chain i)))
    (Reachability.never chain ~target:absorbing);
  let unknown =
    Array.init (Chain.size chain) (fun i -> not (Chain.is_absorbing chain i))
  in
  Sparse.solve ~unknown ~row:(Chain.successors chain) b

let absorption_probability chain ~from ~into =
  if not (Chain.is_absorbing chain into) then
    invalid_arg "Absorbing.absorption_probability: target not absorbing";
  let x = solve chain (Array.init (Chain.size chain) (fun i -> Chain.prob chain i into)) in
  if from = into then 1. else x.(from)

let expected_steps chain ~from =
  (solve chain (Array.make (Chain.size chain) 1.)).(from)

let mean reward = solve (Reward.chain reward) (Reward.one_step_expected reward)

let expected_total_reward reward ~from = (mean reward).(from)

(* The central recursion's right-hand side with every cost and mean
   divided by [s]. *)
let variance_rhs reward a s =
  let chain = Reward.chain reward in
  Array.init (Chain.size chain) (fun i ->
      let cols, probs = Chain.successors chain i in
      let costs = Reward.costs reward i in
      Numerics.Safe_float.sum
        (Array.mapi
           (fun e j ->
             let d = (costs.(e) /. s) +. (a.(j) /. s) -. (a.(i) /. s) in
             probs.(e) *. d *. d)
           cols))

(* Only when a hop's squared deviation overflows (costs past about
   1e154) is the recursion solved again on costs and means divided by
   the largest cost, and the result scaled back; a finite variance
   keeps the plain solve's bits. *)
let scaled_variance_total_reward reward ~from =
  let chain = Reward.chain reward in
  let a = mean reward in
  let v = (solve chain (variance_rhs reward a 1.)).(from) in
  if Float.is_finite v then (v, 1.)
  else
    let s = ref 0. in
    for i = 0 to Chain.size chain - 1 do
      Array.iter (fun c -> s := Float.max !s (Float.abs c)) (Reward.costs reward i)
    done;
    ((solve chain (variance_rhs reward a !s)).(from), !s)

let variance_total_reward reward ~from =
  let v, s = scaled_variance_total_reward reward ~from in
  v *. s *. s
