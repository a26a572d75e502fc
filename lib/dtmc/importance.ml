type estimate = {
  trials : int;
  mean : float;
  relative_error : float;
  ci_lo : float;
  ci_hi : float;
  hits : int;
}

let check_absolute_continuity target proposal =
  if Chain.size target <> Chain.size proposal then
    invalid_arg "Importance: state-space size mismatch";
  for i = 0 to Chain.size target - 1 do
    Array.iter
      (fun j ->
        if Chain.prob proposal i j <= 0. then
          invalid_arg
            (Printf.sprintf
               "Importance: proposal gives zero mass to used edge %d -> %d" i j))
      (fst (Chain.successors target i))
  done

let max_steps = 1_000_000

let estimate_absorption ~trials ~rng ~proposal chain ~from ~into =
  if trials < 1 then invalid_arg "Importance.estimate_absorption: trials < 1";
  check_absolute_continuity chain proposal;
  if not (Chain.is_absorbing chain into) then
    invalid_arg "Importance.estimate_absorption: target not absorbing";
  let samples = Array.make trials 0. in
  let hits = ref 0 in
  for trial = 0 to trials - 1 do
    (* walk under the proposal, accumulating the likelihood ratio in log
       space to survive 50-orders-of-magnitude weights *)
    let state = ref from in
    let log_weight = ref 0. in
    let steps = ref 0 in
    while not (Chain.is_absorbing chain !state) do
      if !steps > max_steps then
        failwith "Importance.estimate_absorption: path too long";
      incr steps;
      let cols, weights = Chain.successors proposal !state in
      let picked = Numerics.Rng.choose_weighted rng weights in
      let next = cols.(picked) and q_prob = weights.(picked) in
      let p_prob = Chain.prob chain !state next in
      log_weight := !log_weight +. log p_prob -. log q_prob;
      state := next
    done;
    if !state = into then begin
      incr hits;
      samples.(trial) <- exp !log_weight
    end
  done;
  let mean = Numerics.Safe_float.mean samples in
  let std =
    if trials < 2 then 0.
    else (Numerics.Stats.summarize samples).Numerics.Stats.std
  in
  let half = 1.959963985 *. std /. sqrt (float_of_int trials) in
  { trials;
    mean;
    relative_error = (if mean > 0. then std /. sqrt (float_of_int trials) /. mean else infinity);
    ci_lo = Float.max 0. (mean -. half);
    ci_hi = mean +. half;
    hits = !hits }

let boosted_proposal chain ~toward =
  let n = Chain.size chain in
  if toward < 0 || toward >= n then
    invalid_arg "Importance.boosted_proposal: bad target";
  (* BFS distances to the target over reversed edges *)
  let dist = Array.make n max_int in
  dist.(toward) <- 0;
  let preds = Array.make n [] in
  for i = 0 to n - 1 do
    if not (Chain.is_absorbing chain i) then
      Array.iter (fun j -> preds.(j) <- i :: preds.(j)) (fst (Chain.successors chain i))
  done;
  let queue = Queue.create () in
  Queue.add toward queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun u ->
        if dist.(u) = max_int then begin
          dist.(u) <- dist.(v) + 1;
          Queue.add u queue
        end)
      preds.(v)
  done;
  let row i =
    if Chain.is_absorbing chain i then [ (i, 1.) ]
    else begin
      let cols, probs = Chain.successors chain i in
      let succs = List.combine (Array.to_list cols) (Array.to_list probs) in
      let improving = List.filter (fun (j, _) -> dist.(j) < dist.(i)) succs in
      if improving = [] || dist.(i) = max_int then
        (* cannot move closer: keep the original row *)
        succs
      else begin
        (* give the improving edges at least 0.4 total mass, split
           proportionally to their original probabilities *)
        let improving_mass =
          Numerics.Safe_float.sum_list (List.map snd improving)
        in
        let target_mass = Float.max improving_mass 0.4 in
        let other_scale =
          if improving_mass >= 1. then 0.
          else (1. -. target_mass) /. (1. -. improving_mass)
        in
        List.map
          (fun (j, p) ->
            if dist.(j) < dist.(i) then (j, p /. improving_mass *. target_mass)
            else (j, p *. other_scale))
          succs
      end
    end
  in
  Chain.create ~labels:(Array.init n (Chain.label chain)) (Array.init n row)
