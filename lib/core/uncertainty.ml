type recommendation_distribution = {
  rounds : int;
  n_votes : (int * int) list;
  modal_n : int;
  r_summary : Numerics.Stats.summary;
  r_ci : float * float;
  cost_summary : Numerics.Stats.summary;
}

let bootstrap ~rounds ~losses ~rng ~delays ~q ~probe_cost
    ~error_cost () =
  let n = Array.length delays in
  if n = 0 then invalid_arg "Uncertainty.bootstrap: empty sample";
  if rounds < 1 then invalid_arg "Uncertainty.bootstrap: rounds < 1";
  if losses < 0 then invalid_arg "Uncertainty.bootstrap: negative losses";
  let total = n + losses in
  let loss_rate = float_of_int losses /. float_of_int total in
  let ns = Array.make rounds 0 in
  let rs = Array.make rounds 0. in
  let costs = Array.make rounds 0. in
  for round = 0 to rounds - 1 do
    (* resample delays with replacement; resample the loss count
       binomially at the empirical rate *)
    let resampled = Array.init n (fun _ -> delays.(Numerics.Rng.int rng n)) in
    let relosses = ref 0 in
    for _ = 1 to total do
      if Numerics.Rng.bool rng loss_rate then incr relosses
    done;
    let fit = Dist.Fit.shifted_exponential_mle ~losses:!relosses resampled in
    let scenario =
      Params.v ~name:"bootstrap"
        ~delay:(Dist.Fit.to_distribution fit)
        ~q ~probe_cost ~error_cost
    in
    let opt = Optimize.global_optimum scenario in
    ns.(round) <- opt.Optimize.n;
    rs.(round) <- opt.Optimize.r;
    costs.(round) <- opt.Optimize.cost
  done;
  let votes = Hashtbl.create 8 in
  Array.iter
    (fun n ->
      Hashtbl.replace votes n (1 + Option.value ~default:0 (Hashtbl.find_opt votes n)))
    ns;
  let n_votes =
    List.sort
      (fun (_, a) (_, b) -> compare b a)
      (Hashtbl.fold (fun n c acc -> (n, c) :: acc) votes [])
  in
  { rounds;
    n_votes;
    modal_n = (match n_votes with (n, _) :: _ -> n | [] -> 0);
    r_summary = Numerics.Stats.summarize rs;
    r_ci = (Numerics.Stats.quantile rs 0.05, Numerics.Stats.quantile rs 0.95);
    cost_summary = Numerics.Stats.summarize costs }

let pp ppf t =
  let lo, hi = t.r_ci in
  Format.fprintf ppf
    "@[<v>bootstrap over %d rounds:@,\
    \  recommended n: %a (modal %d)@,\
    \  recommended r: mean %.4f, 90%% interval [%.4f, %.4f]@,\
    \  believed optimal cost: %.4f +- %.4f@]"
    t.rounds
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf (n, c) -> Format.fprintf ppf "%d (x%d)" n c))
    t.n_votes t.modal_n t.r_summary.Numerics.Stats.mean lo hi
    t.cost_summary.Numerics.Stats.mean t.cost_summary.Numerics.Stats.std
