open Zeroconf

(* past a mean-cost query's bound the draft's cost is inf, its ratio
   to the optimum too, and the report's elasticities inf - inf *)
let assessment ~draft_n ~draft_r (p : Params.t) =
  ignore (Query.point Query.Mean_cost p ~n:draft_n ~r:draft_r);
  Assessment.run ~draft_n ~draft_r p

(* an error probability from its log10, to the nearest power of ten;
   an exact zero prints as 0, not 1e-inf *)
let power_of_ten log10 =
  if log10 = neg_infinity then "0" else Printf.sprintf "1e%.0f" log10

let markdown ~draft_n ~draft_r (p : Params.t) =
  let assessment = assessment ~draft_n ~draft_r p in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let opt = assessment.Assessment.optimum in
  add "# Zeroconf design report: %s\n\n" p.Params.name;
  add "## Scenario\n\n";
  add "| parameter | value |\n|---|---|\n";
  add "| reply-delay distribution F_X | %s |\n"
    p.Params.delay.Dist.Distribution.name;
  add "| permanent loss probability 1-l | %g |\n" (Params.loss_probability p);
  add "| occupancy q | %g (~%.0f hosts) |\n" p.Params.q
    (p.Params.q *. float_of_int Params.address_space_size);
  add "| probe postage c | %g |\n" p.Params.probe_cost;
  add "| collision cost E | %g |\n\n" p.Params.error_cost;
  add "## Operating points\n\n";
  add "| | n | r | mean cost | error probability | config time |\n";
  add "|---|---|---|---|---|---|\n";
  let line label (pt : Optimize.point) =
    let dist = Latency.periods p ~n:pt.Optimize.n ~r:pt.Optimize.r in
    add "| %s | %d | %.3f | %.4g | %.3g | mean %.2f s, 99%% <= %.2f s |\n" label
      pt.Optimize.n pt.Optimize.r pt.Optimize.cost pt.Optimize.error_prob
      (Latency.mean dist)
      (Latency.quantile dist 0.99)
  in
  line "draft" assessment.Assessment.draft;
  line "optimal" opt;
  add "\n";
  add "- minimal useful probe count (Sec. 4.4): **nu = %d**\n"
    assessment.Assessment.nu;
  add "- the draft costs **%.2fx** the optimum on this scenario\n\n"
    assessment.Assessment.cost_ratio;
  add "## Cost/reliability frontier\n\n";
  let front = Tradeoff.front ~n_max:10 ~r_points:120 ~r_max:8. p in
  (match (front, List.rev front) with
  | cheapest :: _, safest :: _ ->
      add "- cheapest: n = %d, r = %.2f (cost %.4g, error %s)\n"
        cheapest.Tradeoff.n cheapest.Tradeoff.r cheapest.Tradeoff.cost
        (power_of_ten cheapest.Tradeoff.log10_error);
      add "- safest considered: n = %d, r = %.2f (cost %.4g, error %s)\n"
        safest.Tradeoff.n safest.Tradeoff.r safest.Tradeoff.cost
        (power_of_ten safest.Tradeoff.log10_error)
  | _ -> ());
  (match Tradeoff.knee front with
  | Some k ->
      add "- knee (balanced compromise): **n = %d, r = %.2f** (cost %.4g, error %s)\n\n"
        k.Tradeoff.n k.Tradeoff.r k.Tradeoff.cost
        (power_of_ten k.Tradeoff.log10_error)
  | None -> add "\n");
  add "## Sensitivity (elasticities of cost at the draft point)\n\n";
  add "| parameter | d ln C / d ln x |\n|---|---|\n";
  List.iter
    (fun (k : Sensitivity.knob) ->
      add "| %s | %+.4f |\n" k.Sensitivity.name
        (Sensitivity.cost_elasticity p k ~n:draft_n ~r:draft_r))
    (Sensitivity.standard_knobs p);
  add "\n*Generated by the zeroconf-cost reproduction of Bohnenkamp et al., DSN 2003.*\n";
  Buffer.contents buf
