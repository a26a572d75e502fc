type choice = { n : int; r : float }

type schedule = {
  per_attempt : choice array;
  expected_cost : float;
  fixed_best : choice;
  fixed_cost : float;
  improvement : float;
}

let default_candidates (p : Params.t) =
  let base = p.Params.delay.Dist.Distribution.mean in
  List.concat_map
    (fun n ->
      List.map
        (fun scale -> { n; r = scale *. base })
        [ 0.25; 0.5; 0.75; 1.; 1.5; 2.; 3. ])
    (List.init 8 (fun i -> i + 1))

(* occupancy of attempt number i (1-based) under the refinement *)
let occupancy (refinement : Attempts.refinement) i =
  if not refinement.Attempts.blacklist then
    float_of_int refinement.Attempts.occupied
    /. float_of_int refinement.Attempts.pool
  else begin
    let known = min (i - 1) refinement.Attempts.occupied in
    float_of_int (refinement.Attempts.occupied - known)
    /. float_of_int (refinement.Attempts.pool - known)
  end

let delay_before (refinement : Attempts.refinement) i =
  match refinement.Attempts.rate_limit with
  | Some (threshold, delay) when i - 1 >= threshold && i > 1 -> delay
  | Some _ | None -> 0.

(* distinguished attempt stages; past the last the occupancy is frozen *)
let stages = 64

let solve (p : Params.t) ~refinement =
  let candidates = default_candidates p in
  let done_state = stages in
  let num_states = stages + 1 in
  (* per-candidate, per-occupancy transition data *)
  let outcome_terms c =
    let k = Kernel.create p ~r:c.r in
    Kernel.advance_to k ~n:c.n;
    let pi_n = Kernel.pi k in
    let sum_pi = Kernel.sum_pi k in
    let step = c.r +. p.Params.probe_cost in
    let clean_cost = float_of_int c.n *. step in
    let abort_prob_given_occupied = 1. -. pi_n in
    let mean_periods_given_abort =
      if abort_prob_given_occupied <= 0. then 0.
      else (sum_pi -. (float_of_int c.n *. pi_n)) /. abort_prob_given_occupied
    in
    ( pi_n,
      clean_cost,
      step *. mean_periods_given_abort )
  in
  let terms = List.map (fun c -> (c, outcome_terms c)) candidates in
  let actions stage =
    if stage >= done_state then []
    else begin
      let attempt = stage + 1 in
      let q = occupancy refinement attempt in
      let delay = delay_before refinement attempt in
      let next = min (stage + 1) (stages - 1) in
      List.map
        (fun (c, (pi_n, clean_cost, abort_cost)) ->
          let name = Printf.sprintf "n=%d,r=%g" c.n c.r in
          let transitions =
            List.filter
              (fun tr -> tr.Dtmc.Mdp.prob > 0.)
              [ { Dtmc.Mdp.dst = done_state;
                  prob = 1. -. q;
                  cost = delay +. clean_cost };
                { Dtmc.Mdp.dst = done_state;
                  prob = q *. pi_n;
                  cost = delay +. clean_cost +. p.Params.error_cost };
                { Dtmc.Mdp.dst = next;
                  prob = q *. (1. -. pi_n);
                  cost = delay +. abort_cost } ]
          in
          (name, transitions))
        terms
    end
  in
  let mdp = Dtmc.Mdp.create ~num_states ~actions in
  let solution = Dtmc.Mdp.value_iteration mdp in
  let candidate_array = Array.of_list candidates in
  let per_attempt =
    Array.init stages (fun stage -> candidate_array.(solution.Dtmc.Mdp.policy.(stage)))
  in
  (* best fixed choice on the same grid *)
  let fixed_cost_of idx =
    let policy = Array.init num_states (fun s -> if s = done_state then -1 else idx) in
    (Dtmc.Mdp.evaluate_policy mdp ~policy).(0)
  in
  let best_idx = ref 0 and best_cost = ref (fixed_cost_of 0) in
  Array.iteri
    (fun idx _ ->
      if idx > 0 then begin
        let cost = fixed_cost_of idx in
        if cost < !best_cost then begin
          best_idx := idx;
          best_cost := cost
        end
      end)
    candidate_array;
  { per_attempt;
    expected_cost = solution.Dtmc.Mdp.values.(0);
    fixed_best = candidate_array.(!best_idx);
    fixed_cost = !best_cost;
    improvement = Float.max 0. (!best_cost -. solution.Dtmc.Mdp.values.(0)) }
