type report = {
  query : Query.t;
  answers : Answer.t list;
  max_rel_divergence : float;
  mc_covered : bool option;
}

let default_trials = 20_000
let default_seed = 42

let rel_divergence a b =
  if a = b then 0.
  else if not (Float.is_finite a && Float.is_finite b) then infinity
  else
    let denom = Float.max (Float.abs a) (Float.abs b) in
    if denom = 0. then 0. else Float.abs (a -. b) /. denom

let report (q : Query.t) exact_answers mc_answer =
  let size = Query.size q in
  let max_rel = ref 0. in
  List.iteri
    (fun i (a : Answer.t) ->
      List.iteri
        (fun j (b : Answer.t) ->
          if j > i then
            for k = 0 to size - 1 do
              max_rel :=
                Float.max !max_rel
                  (rel_divergence (Answer.scalar a k) (Answer.scalar b k))
            done)
        exact_answers)
    exact_answers;
  (* the interval must hold every deterministic answer, so a drift
     between two exact routes shows as a miss *)
  let covers (mc : Answer.t) (reference : Answer.t) =
    let ok = ref true in
    for k = 0 to size - 1 do
      let x = Answer.scalar reference k in
      match Answer.ci mc k with
      | Some (lo, hi) ->
          (* the Wilson lower bound at 0 successes is ~0 up to fp
             noise; a hair of slack keeps exact-zero references in *)
          let slack =
            1e-12 *. Float.max 1. (Float.max (Float.abs lo) (Float.abs hi))
          in
          if not (x >= lo -. slack && x <= hi +. slack) then ok := false
      | None -> ok := false
    done;
    !ok
  in
  let mc_covered =
    match (mc_answer, exact_answers) with
    | Some mc, _ :: _ -> Some (List.for_all (covers mc) exact_answers)
    | _ -> None
  in
  { query = q;
    answers = exact_answers @ Option.to_list mc_answer;
    max_rel_divergence = !max_rel;
    mc_covered }

let exact_routes : (module Backend.S) list =
  [ (module Backends.Analytic); (module Backends.Kernel);
    (module Backends.Dtmc) ]

let run ~trials ?(seed = default_seed) queries =
  (* every query, at the Monte-Carlo accuracy, is checked before any
     route runs *)
  let mc_queries =
    List.map
      (fun (q : Query.t) ->
        let mc_q = { q with accuracy = Query.Sampled { trials; seed } } in
        Query.validate mc_q;
        mc_q)
      queries
  in
  (* every Monte-Carlo plan in one batch, so queries that sample the
     same stream (cost and error at one point) share one run *)
  let mc_answers =
    Executor.run_batch
      (Array.of_list
         (List.filter_map
            (fun q ->
              if Backends.Mc.supports q then
                Some (Planner.plan ~backend:Backends.Mc.name q)
              else None)
            mc_queries))
  in
  let next_mc = ref 0 in
  List.map2
    (fun (q : Query.t) mc_q ->
      (* each exact route forced by name, query by query, so each
         report's evals are its own scan (one batch would charge a
         shared kernel scan or DTMC build to its first reader only) *)
      let exact_q = { q with accuracy = Query.Exact } in
      let exact_answers =
        List.filter_map
          (fun (module B : Backend.S) ->
            if B.supports exact_q then
              Some (Executor.eval ~backend:B.name exact_q)
            else None)
          exact_routes
      in
      let mc_answer =
        if Backends.Mc.supports mc_q then begin
          let a = mc_answers.(!next_mc) in
          incr next_mc;
          Some a
        end
        else None
      in
      report q exact_answers mc_answer)
    queries mc_queries
