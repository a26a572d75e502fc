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

(* Row by row in the paper's order: start = 0, probe i = i,
   error = n + 1, ok = n + 2; zero-probability hops are left out. *)
let build (p : Params.t) ~n ~r =
  if n < 1 then invalid_arg "Drm.build: n must be >= 1";
  if r < 0. then invalid_arg "Drm.build: negative listening period";
  if Float.is_nan r then invalid_arg "Drm.build: listening period is nan";
  let error = n + 1 and ok = n + 2 in
  let labels =
    Array.init (n + 3) (fun i ->
        if i = 0 then "start"
        else if i = error then "error"
        else if i = ok then "ok"
        else ordinal i)
  in
  let p_row = Array.make (n + 3) [] and c_row = Array.make (n + 3) [] in
  let edge i j prob cost =
    if prob > 0. then begin
      p_row.(i) <- (j, prob) :: p_row.(i);
      c_row.(i) <- (j, cost) :: c_row.(i)
    end
  in
  let step_cost = r +. p.probe_cost in
  edge 0 1 p.q step_cost;
  edge 0 ok (1. -. p.q) (float_of_int n *. step_cost);
  for i = 1 to n do
    let p_i = Probes.no_answer p ~i ~r in
    edge i (i + 1) p_i (if i = n then p.error_cost else step_cost);
    edge i 0 (1. -. p_i) 0.
  done;
  p_row.(error) <- [ (error, 1.) ];
  p_row.(ok) <- [ (ok, 1.) ];
  let chain = Dtmc.Chain.create ~labels p_row in
  { chain;
    reward = Dtmc.Reward.create ~transition_rewards:c_row chain;
    start = 0;
    error;
    ok }

let mean_cost t = Dtmc.Absorbing.expected_total_reward t.reward ~from:t.start

let error_probability t =
  Dtmc.Absorbing.absorption_probability t.chain ~from:t.start ~into:t.error

let cost_variance t = Dtmc.Absorbing.variance_total_reward t.reward ~from:t.start
let expected_steps t = Dtmc.Absorbing.expected_steps t.chain ~from:t.start
