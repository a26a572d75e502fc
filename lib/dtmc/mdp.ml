type transition = { dst : int; prob : float; cost : float }

type t = {
  num_states : int;
  actions : (string * transition list) array array;
}

let create ~num_states ~actions =
  if num_states < 1 then invalid_arg "Mdp.create: num_states < 1";
  let table =
    Array.init num_states (fun s ->
        let acts = Array.of_list (actions s) in
        Array.iter
          (fun (name, transitions) ->
            if transitions = [] then
              invalid_arg
                (Printf.sprintf "Mdp.create: action %s of state %d has no transitions"
                   name s);
            let total =
              Numerics.Safe_float.sum_list
                (List.map
                   (fun tr ->
                     if tr.prob <= 0. then
                       invalid_arg "Mdp.create: non-positive probability";
                     if tr.dst < 0 || tr.dst >= num_states then
                       invalid_arg "Mdp.create: destination out of range";
                     tr.prob)
                   transitions)
            in
            if not (Numerics.Safe_float.approx_eq total 1.) then
              invalid_arg
                (Printf.sprintf
                   "Mdp.create: action %s of state %d has probability mass %.12g"
                   name s total))
          acts;
        acts)
  in
  { num_states; actions = table }

type solution = { values : float array; policy : int array; iterations : int }

let q_value t values s a =
  let _, transitions = t.actions.(s).(a) in
  Numerics.Safe_float.sum_list
    (List.map (fun tr -> tr.prob *. (tr.cost +. values.(tr.dst))) transitions)

let greedy t values s =
  let acts = t.actions.(s) in
  if Array.length acts = 0 then (-1, 0.)
  else begin
    let best = ref 0 and best_v = ref (q_value t values s 0) in
    for a = 1 to Array.length acts - 1 do
      let v = q_value t values s a in
      if v < !best_v then begin
        best := a;
        best_v := v
      end
    done;
    (!best, !best_v)
  end

let value_iteration t =
  let tol = 1e-12 and max_iter = 1_000_000 in
  let values = Array.make t.num_states 0. in
  let rec sweep k =
    if k >= max_iter then failwith "Mdp.value_iteration: no convergence";
    let delta = ref 0. in
    (* Gauss-Seidel: use fresh values within the sweep *)
    for s = 0 to t.num_states - 1 do
      if Array.length t.actions.(s) > 0 then begin
        let _, v = greedy t values s in
        delta := Float.max !delta (Float.abs (v -. values.(s)));
        values.(s) <- v
      end
    done;
    if !delta > tol *. (1. +. Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0. values)
    then sweep (k + 1)
    else k + 1
  in
  let iterations = sweep 0 in
  let policy = Array.init t.num_states (fun s -> fst (greedy t values s)) in
  { values; policy; iterations }

let evaluate_policy t ~policy =
  if Array.length policy <> t.num_states then
    invalid_arg "Mdp.evaluate_policy: policy length mismatch";
  (* v = c_pi + P_pi v over the controlled states *)
  let controlled = Array.map (fun acts -> Array.length acts > 0) t.actions in
  Array.iteri
    (fun s c ->
      if c && (policy.(s) < 0 || policy.(s) >= Array.length t.actions.(s)) then
        invalid_arg "Mdp.evaluate_policy: action index out of range")
    controlled;
  let chosen s = if controlled.(s) then snd t.actions.(s).(policy.(s)) else [] in
  let row s =
    let transitions = Array.of_list (chosen s) in
    (Array.map (fun tr -> tr.dst) transitions, Array.map (fun tr -> tr.prob) transitions)
  in
  let b =
    Array.init t.num_states (fun s ->
        List.fold_left (fun acc tr -> acc +. (tr.prob *. tr.cost)) 0. (chosen s))
  in
  try Sparse.solve ~unknown:controlled ~row b
  with Sparse.Singular ->
    failwith "Mdp.evaluate_policy: policy does not reach absorption"
