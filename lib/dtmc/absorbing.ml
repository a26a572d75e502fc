module Matrix = Numerics.Matrix
module Lu = Numerics.Lu

type decomposition = {
  transient : int array;
  absorbing : int array;
  q : Matrix.t;
  r : Matrix.t;
}

let decompose chain =
  let n = Chain.size chain in
  let absorbing = Array.of_list (Chain.absorbing_states chain) in
  if Array.length absorbing = 0 then
    invalid_arg "Absorbing.decompose: chain has no absorbing state";
  let is_abs = Array.make n false in
  Array.iter (fun i -> is_abs.(i) <- true) absorbing;
  let transient =
    Array.of_list (List.filter (fun i -> not is_abs.(i)) (List.init n Fun.id))
  in
  (* every transient state must reach an absorbing one *)
  Array.iter
    (fun i ->
      let r = Chain.reachable chain ~from:i in
      if not (Array.exists (fun a -> r.(a)) absorbing) then
        invalid_arg
          (Printf.sprintf
             "Absorbing.decompose: state %s cannot reach absorption"
             (State_space.label (Chain.states chain) i)))
    transient;
  let nt = Array.length transient and na = Array.length absorbing in
  let q =
    Matrix.init ~rows:nt ~cols:nt (fun i j ->
        Chain.prob chain transient.(i) transient.(j))
  in
  let r =
    Matrix.init ~rows:nt ~cols:na (fun i j ->
        Chain.prob chain transient.(i) absorbing.(j))
  in
  { transient; absorbing; q; r }

let i_minus_q d =
  Matrix.sub (Matrix.identity (Matrix.rows d.q)) d.q

let fundamental d = Lu.inverse (Lu.decompose (i_minus_q d))

let absorption_probabilities chain =
  let d = decompose chain in
  Lu.solve_matrix (i_minus_q d) d.r

let position arr x =
  let rec go i =
    if i >= Array.length arr then None
    else if arr.(i) = x then Some i
    else go (i + 1)
  in
  go 0

let absorption_probability chain ~from ~into =
  let d = decompose chain in
  match position d.absorbing into with
  | None -> invalid_arg "Absorbing.absorption_probability: target not absorbing"
  | Some target_pos -> (
      if Chain.is_absorbing chain from then (if from = into then 1. else 0.)
      else
        match position d.transient from with
        | None -> invalid_arg "Absorbing.absorption_probability: bad source"
        | Some src_pos ->
            let b = Lu.solve_matrix (i_minus_q d) d.r in
            Matrix.get b src_pos target_pos)

let expected_steps chain ~from =
  if Chain.is_absorbing chain from then 0.
  else
    let d = decompose chain in
    match position d.transient from with
    | None -> invalid_arg "Absorbing.expected_steps: bad source"
    | Some src ->
        let ones = Array.make (Array.length d.transient) 1. in
        (Lu.solve (i_minus_q d) ones).(src)

let expected_visits chain ~from ~to_ =
  if Chain.is_absorbing chain from then 0.
  else
    let d = decompose chain in
    match (position d.transient from, position d.transient to_) with
    | Some src, Some dst ->
        let n = fundamental d in
        Matrix.get n src dst
    | _ -> invalid_arg "Absorbing.expected_visits: states must be transient"

(* Expected cost accumulated until absorption: a = (I - Q)^{-1} w over
   the transient block, scattered back to original indices. *)
let expected_total_reward_all reward =
  let chain = Reward.chain reward in
  let d = decompose chain in
  let w_full = Reward.one_step_expected reward in
  let w = Array.map (fun i -> w_full.(i)) d.transient in
  let a = Lu.solve (i_minus_q d) w in
  let out = Array.make (Chain.size chain) 0. in
  Array.iteri (fun pos i -> out.(i) <- a.(pos)) d.transient;
  out

let expected_total_reward reward ~from = (expected_total_reward_all reward).(from)

let variance_total_reward reward ~from =
  let chain = Reward.chain reward in
  if Chain.is_absorbing chain from then 0.
  else begin
    let d = decompose chain in
    let a = expected_total_reward_all reward in
    (* second moment: s_i = sum_j p_ij (c_ij^2 + 2 c_ij a_j) + sum_{j in T} p_ij s_j
       with c_ij the cost of the step *)
    let u =
      Array.map
        (fun i ->
          Numerics.Safe_float.sum_list
            (List.map
               (fun (j, p) ->
                 let c = Reward.transition reward i j in
                 p *. ((c *. c) +. (2. *. c *. a.(j))))
               (Chain.successors chain i)))
        d.transient
    in
    let s = Lu.solve (i_minus_q d) u in
    match position d.transient from with
    | None -> invalid_arg "Absorbing.variance_total_reward: bad source"
    | Some pos ->
        let second_moment = s.(pos) in
        Float.max 0. (second_moment -. (a.(from) *. a.(from)))
  end
