(* Property tests over randomly generated chains: the solver invariants
   that must hold for any absorbing (or irreducible) chain, not just the
   hand-built ones. *)

module C = Dtmc.Chain

(* random absorbing chain: [transient] transient states, 2 absorbing;
   every transient row mixes a random distribution over all states with
   a guaranteed epsilon of direct absorption, so absorption is certain *)
let absorbing_chain_gen =
  QCheck.Gen.(
    let* transient = int_range 1 8 in
    let* seed = int_range 0 1_000_000 in
    return
      (let rng = Numerics.Rng.create seed in
       let n = transient + 2 in
       let rows =
         Array.init n (fun i ->
             if i >= transient then [ (i, 1.) ]
             else begin
               let weights = Array.init n (fun _ -> Numerics.Rng.float rng +. 0.01) in
               (* force some direct absorption mass *)
               weights.(transient) <- weights.(transient) +. 0.3;
               let total = Numerics.Safe_float.sum weights in
               List.init n (fun j -> (j, weights.(j) /. total))
             end)
       in
       let labels = Array.init n (fun i -> Printf.sprintf "s%d" i) in
       C.create ~labels rows))

(* Every transient row of the generator absorbs directly with positive
   probability, so the non-absorbing states are exactly the transient
   ones. *)
let transient_states chain =
  List.filter
    (fun i -> not (C.is_absorbing chain i))
    (List.init (C.size chain) Fun.id)

let prop_absorption_rows_sum_to_one =
  QCheck.Test.make ~name:"absorption probabilities sum to 1" ~count:200
    (QCheck.make absorbing_chain_gen)
    (fun chain ->
      List.for_all
        (fun s ->
          Oracle.approx_eq ~rtol:1e-9
            (Numerics.Safe_float.sum_list
               (List.map
                  (fun a -> Dtmc.Absorbing.absorption_probability chain ~from:s ~into:a)
                  (Dtmc.Chain.absorbing_states chain)))
            1.)
        (transient_states chain))

let prop_reachability_of_all_absorbing_is_one =
  QCheck.Test.make ~name:"P(reach some absorbing state) = 1" ~count:200
    (QCheck.make absorbing_chain_gen)
    (fun chain ->
      let target = Dtmc.Chain.absorbing_states chain in
      let p = Oracle.reach chain ~target in
      Array.for_all (fun v -> Oracle.approx_eq ~rtol:1e-9 v 1.) p)

let prop_reachability_matches_absorption =
  QCheck.Test.make ~name:"reachability of one absorbing state = absorption prob"
    ~count:150
    (QCheck.make absorbing_chain_gen)
    (fun chain ->
      match Dtmc.Chain.absorbing_states chain with
      | a :: _ ->
          let reach = Oracle.reach chain ~target:[ a ] in
          List.for_all
            (fun s ->
              Oracle.approx_eq ~rtol:1e-8 ~atol:1e-12 reach.(s)
                (Dtmc.Absorbing.absorption_probability chain ~from:s ~into:a))
            (transient_states chain)
      | [] -> false)

let prop_variance_non_negative =
  QCheck.Test.make ~name:"reward variance >= 0" ~count:150
    (QCheck.make absorbing_chain_gen)
    (fun chain ->
      (* unit cost per step *)
      let costs =
        Array.init (Dtmc.Chain.size chain) (fun i ->
            if Dtmc.Chain.is_absorbing chain i then []
            else
              Array.to_list
                (Array.map (fun j -> (j, 1.)) (fst (Dtmc.Chain.successors chain i))))
      in
      let reward = Dtmc.Reward.create ~transition_rewards:costs chain in
      List.for_all
        (fun s -> Dtmc.Absorbing.variance_total_reward reward ~from:s >= -1e-9)
        (transient_states chain))

(* A chain walk kept here as a reference independent of the sparse
   solver: the Wilson interval of the share of [trials] walks from
   [from] that end in [into].  Every generated chain absorbs surely. *)
let walk_absorption ~trials ~rng chain ~from ~into =
  let hits = ref 0 in
  for _ = 1 to trials do
    let state = ref from in
    while not (C.is_absorbing chain !state) do
      let cols, weights = C.successors chain !state in
      state := cols.(Numerics.Rng.choose_weighted rng weights)
    done;
    if !state = into then incr hits
  done;
  Numerics.Stats.proportion_ci ~successes:!hits trials

let prop_simulation_consistent_with_absorption =
  QCheck.Test.make ~name:"simulated absorption inside Wilson CI (99% of runs)"
    ~count:30
    (QCheck.make absorbing_chain_gen)
    (fun chain ->
      match Dtmc.Chain.absorbing_states chain with
      | a :: _ ->
          let truth = Dtmc.Absorbing.absorption_probability chain ~from:0 ~into:a in
          let rng = Numerics.Rng.create 7 in
          let lo, hi = walk_absorption ~trials:3_000 ~rng chain ~from:0 ~into:a in
          (* generous margin: qcheck runs many cases *)
          truth > lo -. 0.05 && truth < hi +. 0.05
      | [] -> false)

let () =
  Alcotest.run "dtmc_random"
    [ ( "absorbing invariants",
        List.map QCheck_alcotest.to_alcotest
          [ prop_absorption_rows_sum_to_one;
            prop_reachability_of_all_absorbing_is_one;
            prop_reachability_matches_absorption; prop_variance_non_negative ] );
      ( "simulation",
        [ QCheck_alcotest.to_alcotest prop_simulation_consistent_with_absorption ] ) ]
