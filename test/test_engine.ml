(* Cross-backend consistency for the query engine: the deterministic
   routes must agree (kernel bit-identically with the closed forms,
   the DTMC solve to 1e-9 relative), and the Monte-Carlo route must
   cover the deterministic value with its confidence interval. *)

module Q = Engine.Query
module A = Engine.Answer

let eval ?backend q = Engine.Executor.eval ?backend q
let value ?backend q = A.scalar (eval ?backend q) 0

let grid_points = [ (1, 0.5); (2, 1.); (4, 2.); (6, 1.3); (8, 0.7) ]
let exact_quantities = [ Q.Mean_cost; Q.Error_probability; Q.Log10_error ]

(* ------------------------------------------------------------------ *)
(* Analytic == Kernel, bit for bit, on every preset                    *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let test_kernel_bit_identity () =
  List.iter
    (fun (name, p) ->
      List.iter
        (fun (n, r) ->
          List.iter
            (fun qty ->
              let q = Q.point qty p ~n ~r in
              let va = value ~backend:"analytic" q in
              let vk = value ~backend:"kernel" q in
              if not (same_bits va vk) then
                Alcotest.failf "%s (%d, %g) %s: analytic %h vs kernel %h" name
                  n r (Q.quantity_name qty) va vk)
            exact_quantities)
        grid_points)
    Zeroconf.Params.presets

let test_sweep_matches_points () =
  let p = Zeroconf.Params.figure2 in
  let rs = Numerics.Grid.linspace 0.1 4. 25 in
  let ns = Array.init 10 (fun i -> i + 1) in
  List.iter
    (fun qty ->
      let sweep = eval (Q.r_sweep qty p ~n:4 ~rs) in
      Array.iteri
        (fun i _ ->
          let direct = value (Q.point qty p ~n:4 ~r:rs.(i)) in
          if not (same_bits (A.scalar sweep i) direct) then
            Alcotest.failf "r-sweep %s drifts at r = %g" (Q.quantity_name qty)
              rs.(i))
        sweep.A.points;
      let sweep = eval (Q.n_sweep qty p ~ns ~r:2.) in
      Array.iteri
        (fun i _ ->
          let direct = value (Q.point qty p ~n:ns.(i) ~r:2.) in
          if not (same_bits (A.scalar sweep i) direct) then
            Alcotest.failf "n-sweep %s drifts at n = %d" (Q.quantity_name qty)
              ns.(i))
        sweep.A.points)
    exact_quantities

let test_n_sweep_any_order () =
  (* the kernel backend reorders arbitrary (even duplicated) probe
     counts onto one forward cursor *)
  let p = Zeroconf.Params.figure2 in
  let ns = [| 7; 2; 2; 9; 1 |] in
  let a = eval ~backend:"kernel" (Q.n_sweep Q.Mean_cost p ~ns ~r:1.5) in
  Array.iteri
    (fun i (n, _r) ->
      Alcotest.(check int) "sweep order preserved" ns.(i) n;
      let direct = value (Q.point Q.Mean_cost p ~n:ns.(i) ~r:1.5) in
      Alcotest.(check bool) "value matches" true (same_bits (A.scalar a i) direct))
    a.A.points

(* ------------------------------------------------------------------ *)
(* Analytic vs DTMC matrix solve: <= 1e-9 relative, on every preset    *)

let rel_divergence a b =
  if a = b then 0. else Float.abs (a -. b) /. Float.max (Float.abs a) (Float.abs b)

let test_dtmc_agreement () =
  List.iter
    (fun (name, p) ->
      List.iter
        (fun (n, r) ->
          List.iter
            (fun qty ->
              let q = Q.point qty p ~n ~r in
              let va = value ~backend:"analytic" q in
              let vd = value ~backend:"dtmc" q in
              let rel = rel_divergence va vd in
              if rel > 1e-9 then
                Alcotest.failf "%s (%d, %g) %s: analytic %.17g vs dtmc %.17g \
                                (rel %.3g)"
                  name n r (Q.quantity_name qty) va vd rel)
            [ Q.Mean_cost; Q.Error_probability ])
        grid_points)
    Zeroconf.Params.presets

(* ------------------------------------------------------------------ *)
(* Monte Carlo inside its own confidence interval (fixed seed)         *)

(* a scenario Monte Carlo can actually resolve: frequent collisions,
   moderate error cost; q on the hosts lattice so the simulator's
   occupancy reproduces it exactly *)
let mc_friendly =
  Zeroconf.Params.v ~name:"mc-moderate"
    ~delay:(Dist.Families.shifted_exponential ~mass:0.9 ~rate:2. ~delay:0.5 ())
    ~q:(Zeroconf.Params.q_of_hosts 19_507)
    ~probe_cost:1. ~error_cost:100.

let check_covered p ~n ~r =
  let quantities = [ Q.Mean_cost; Q.Error_probability; Q.Latency_mean ] in
  let reports =
    Engine.Crosscheck.run ~trials:20_000 ~seed:Engine.Crosscheck.default_seed
      (List.map (fun qty -> Q.point qty p ~n ~r) quantities)
  in
  List.iter2
    (fun qty (rep : Engine.Crosscheck.report) ->
      Alcotest.(check (option bool))
        (Printf.sprintf "%s covered at (%d, %g) on %s" (Q.quantity_name qty) n
           r p.Zeroconf.Params.name)
        (Some true) rep.Engine.Crosscheck.mc_covered)
    quantities reports

let test_mc_within_ci () =
  check_covered Zeroconf.Params.figure2 ~n:4 ~r:2.;
  check_covered mc_friendly ~n:4 ~r:1.

(* ------------------------------------------------------------------ *)
(* Monte Carlo shares one run per sampling stream, never more          *)

let values_bits (a : A.t) =
  match a.A.values with
  | A.Scalars v -> Array.map (fun x -> [ Int64.bits_of_float x ]) v
  | A.Intervals v ->
      Array.map
        (fun { A.mean; ci_lo; ci_hi } ->
          List.map Int64.bits_of_float [ mean; ci_lo; ci_hi ])
        v

let mc_plan ?(trials = 2_000) ?(seed = 5) q =
  Engine.Plan.make ~route:Engine.Plan.Mc
    { q with Q.accuracy = Q.Sampled { trials; seed } }

(* the batch answers every plan exactly as it answers that plan alone,
   at one and at two jobs *)
let check_shared label plans =
  let module Mc = Engine.Backends.Mc in
  Fun.protect ~finally:(fun () -> Exec.Pool.set_jobs 1) (fun () ->
      Exec.Pool.set_jobs 1;
      let alone = Array.map (fun pl -> (Mc.eval_batch [| pl |]).(0)) plans in
      List.iter
        (fun jobs ->
          Exec.Pool.set_jobs jobs;
          let batch = Mc.eval_batch plans in
          Array.iteri
            (fun i (b : A.t) ->
              let a = alone.(i) in
              if values_bits b <> values_bits a
              then
                Alcotest.failf "%s: plan %d differs from its solo run at -j %d"
                  label i jobs;
              Alcotest.(check int)
                (Printf.sprintf "%s: plan %d evals = trials x points" label i)
                a.A.evals b.A.evals)
            batch)
        [ 1; 2 ])

let test_mc_shared_streams () =
  (* one probe, so collisions are common and error rates tell streams
     apart *)
  let p = mc_friendly in
  let at qty = Q.point qty p ~n:1 ~r:1. in
  let rs = [| 0.5; 1.; 1.5 |] in
  check_shared "one point"
    (Array.map (fun qty -> mc_plan (at qty))
       [| Q.Mean_cost; Q.Error_probability; Q.Latency_mean |]);
  check_shared "r-sweep pair"
    [| mc_plan (Q.r_sweep Q.Mean_cost p ~n:1 ~rs);
       mc_plan (Q.r_sweep Q.Error_probability p ~n:1 ~rs) |];
  (* near-twins that must not share: another seed, another trial
     count, the same point at stream index 1 (the sweep's r = 1),
     another n, another scenario, and an equal but physically distinct
     one *)
  let twin = Zeroconf.Params.with_q p p.Zeroconf.Params.q in
  let other =
    Zeroconf.Params.with_q Zeroconf.Params.figure2 p.Zeroconf.Params.q
  in
  check_shared "near-twins"
    [| mc_plan (at Q.Error_probability);
       mc_plan ~seed:6 (at Q.Error_probability);
       mc_plan ~trials:1_000 (at Q.Error_probability);
       mc_plan (Q.r_sweep Q.Error_probability p ~n:1 ~rs);
       mc_plan (Q.point Q.Error_probability p ~n:2 ~r:1.);
       mc_plan (Q.point Q.Error_probability other ~n:1 ~r:1.);
       mc_plan (Q.point Q.Error_probability twin ~n:1 ~r:1.);
       mc_plan (at Q.Mean_cost) |]

(* ------------------------------------------------------------------ *)
(* Planner routing and provenance                                      *)

let planned q = Engine.Plan.route_name (Engine.Planner.plan q).Engine.Plan.route

let test_planner_routing () =
  let p = Zeroconf.Params.figure2 in
  Alcotest.(check string) "cost -> kernel" "kernel"
    (planned (Q.point Q.Mean_cost p ~n:4 ~r:2.));
  Alcotest.(check string) "log10 error -> kernel" "kernel"
    (planned (Q.point Q.Log10_error p ~n:4 ~r:2.));
  Alcotest.(check string) "latency -> analytic" "analytic"
    (planned (Q.point Q.Latency_mean p ~n:4 ~r:2.));
  Alcotest.(check string) "variance -> dtmc" "dtmc"
    (planned (Q.point Q.Cost_variance p ~n:4 ~r:2.));
  Alcotest.(check string) "sampled -> mc" "mc"
    (planned
       (Q.point ~accuracy:(Q.Sampled { trials = 100; seed = 1 }) Q.Mean_cost p
          ~n:4 ~r:2.));
  Alcotest.(check bool) "sampled variance unsupported" true
    (match
       Engine.Planner.plan
         (Q.point
            ~accuracy:(Q.Sampled { trials = 100; seed = 1 })
            Q.Cost_variance p ~n:4 ~r:2.)
     with
    | exception Engine.Planner.Unsupported _ -> true
    | _ -> false)

let test_provenance () =
  let p = Zeroconf.Params.figure2 in
  let a = eval (Q.point Q.Mean_cost p ~n:4 ~r:2.) in
  Alcotest.(check string) "backend tag" "kernel" a.A.backend;
  Alcotest.(check int) "kernel point evals = n" 4 a.A.evals;
  Alcotest.(check bool) "wall clock sane" true (a.A.wall_ns >= 0L);
  let sweep = eval (Q.r_sweep Q.Mean_cost p ~n:3 ~rs:(Numerics.Grid.linspace 1. 2. 5)) in
  Alcotest.(check int) "r-sweep evals = n * points" 15 sweep.A.evals;
  let mc =
    eval
      (Q.point ~accuracy:(Q.Sampled { trials = 250; seed = 7 }) Q.Mean_cost p
         ~n:4 ~r:2.)
  in
  Alcotest.(check string) "mc tag" "mc" mc.A.backend;
  Alcotest.(check int) "mc evals = trials" 250 mc.A.evals;
  (match mc.A.values with
  | A.Intervals [| { A.ci_lo; ci_hi; mean } |] ->
      Alcotest.(check bool) "ci ordered" true (ci_lo <= mean && mean <= ci_hi)
  | _ -> Alcotest.fail "mc must report one interval")

let test_validation () =
  let p = Zeroconf.Params.figure2 in
  let dear = Zeroconf.Params.with_costs ~probe_cost:1e308 p in
  List.iter
    (fun f -> Alcotest.(check bool) "rejected" true
        (match f () with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ (fun () -> ignore (Q.point Q.Mean_cost p ~n:0 ~r:2.));
      (fun () -> ignore (Q.point Q.Mean_cost p ~n:4 ~r:(-1.)));
      (fun () -> ignore (Q.point Q.Mean_cost p ~n:4 ~r:Float.nan));
      (fun () -> ignore (Q.point Q.Mean_cost p ~n:4 ~r:Float.infinity));
      (fun () -> ignore (Q.n_sweep Q.Mean_cost p ~ns:[||] ~r:1.));
      (fun () -> ignore (Q.r_sweep Q.Mean_cost p ~n:4 ~rs:[||]));
      (fun () ->
        ignore
          (Q.n_sweep Q.Mean_cost p
             ~ns:(Array.make (Q.max_points + 1) 1)
             ~r:1.));
      (fun () ->
        ignore
          (Q.point ~accuracy:(Q.Sampled { trials = 0; seed = 1 }) Q.Mean_cost p
             ~n:4 ~r:2.));
      (fun () ->
        ignore
          (Q.point
             ~accuracy:(Q.Sampled { trials = Q.max_trials + 1; seed = 1 })
             Q.Mean_cost p ~n:4 ~r:2.));
      (* the largest attempt cost n (r + c) + E overflows *)
      (fun () -> ignore (Q.point Q.Cost_variance dear ~n:4 ~r:2.));
      (fun () -> ignore (Q.n_sweep Q.Mean_cost dear ~ns:[| 1; 2 |] ~r:2.));
      (fun () -> ignore (Q.r_sweep Q.Mean_cost p ~n:4 ~rs:[| 1.; 1e308 |]));
      (fun () ->
        ignore
          (Q.point ~accuracy:(Q.Sampled { trials = 10; seed = 1 }) Q.Mean_cost
             p ~n:4 ~r:1e308));
      (* the mean latency sums k r up to the period horizon *)
      (fun () -> ignore (Q.point Q.Latency_mean p ~n:1 ~r:1e308));
      (fun () -> ignore (Q.r_sweep Q.Latency_mean p ~n:4 ~rs:[| 2.; 5e304 |]))
    ];
  Alcotest.check_raises "the refusal names the quantity"
    (Invalid_argument
       "Query: mean-cost at n = 4, r = 2: the largest attempt cost n (r + c) \
        + E = inf is not finite")
    (fun () -> ignore (Q.point Q.Mean_cost dear ~n:4 ~r:2.));
  (* one probe at c = 1e308 stays finite, and the probabilities are
     defined wherever the cost overflows *)
  ignore (Q.point Q.Mean_cost dear ~n:1 ~r:2.);
  ignore (Q.point Q.Error_probability dear ~n:4 ~r:2.);
  ignore (Q.point Q.Error_probability p ~n:4 ~r:1e308);
  Alcotest.check_raises "the latency refusal names the quantity"
    (Invalid_argument
       "Query: latency-mean at n = 4, r = 1e+308: the configuration time at \
        the horizon 4096 r = inf is not finite")
    (fun () -> ignore (Q.point Q.Latency_mean p ~n:4 ~r:1e308));
  ignore (Q.point Q.Latency_mean p ~n:4 ~r:4e304);
  (* the bounds themselves are accepted *)
  Alcotest.(check int) "max_points accepted" Q.max_points
    (Q.size (Q.r_sweep Q.Mean_cost p ~n:4 ~rs:(Array.make Q.max_points 1.)));
  ignore
    (Q.point ~accuracy:(Q.Sampled { trials = Q.max_trials; seed = 1 })
       Q.Mean_cost p ~n:4 ~r:2.)

(* the paper's r = 0 boundary: every pi_i is 1, so C_n(0) = n c + q E;
   with free probes (c = 0) the mean cost collapses to exactly q E *)
let test_r_zero_boundary () =
  let p = Zeroconf.Params.figure2 in
  let free_probes = Zeroconf.Params.with_costs ~probe_cost:0. p in
  List.iter
    (fun n ->
      let q = Q.point Q.Mean_cost free_probes ~n ~r:0. in
      let expected = free_probes.Zeroconf.Params.q *. free_probes.Zeroconf.Params.error_cost in
      List.iter
        (fun backend ->
          let v = value ~backend q in
          if not (same_bits v expected) then
            Alcotest.failf "%s: C_%d(0) = %h, expected q E = %h" backend n v
              expected)
        [ "analytic"; "kernel" ])
    [ 1; 4; 8 ];
  (* with postage, the boundary value is n c + q E (to rounding) *)
  let n = 4 in
  let v = value (Q.point Q.Mean_cost p ~n ~r:0.) in
  let expected =
    (float_of_int n *. p.Zeroconf.Params.probe_cost)
    +. (p.Zeroconf.Params.q *. p.Zeroconf.Params.error_cost)
  in
  Alcotest.(check bool)
    "C_4(0) = 4c + qE to 1e-12 relative" true
    (rel_divergence v expected <= 1e-12);
  (* the error probability at r = 0 is the paper's q / (1 - q (1 - 1))
     = q: no probe ever helps *)
  let e = value (Q.point Q.Error_probability p ~n ~r:0.) in
  Alcotest.(check bool) "E(4, 0) = q" true
    (same_bits e p.Zeroconf.Params.q)

(* the acceptance-criteria crosscheck, as a regression test *)
let test_crosscheck_acceptance () =
  List.iter
    (fun (rep : Engine.Crosscheck.report) ->
      Alcotest.(check int) "three deterministic routes + mc" 4
        (List.length rep.Engine.Crosscheck.answers);
      Alcotest.(check bool) "divergence <= 1e-9" true
        (rep.Engine.Crosscheck.max_rel_divergence <= 1e-9);
      Alcotest.(check (option bool)) "mc covered" (Some true)
        rep.Engine.Crosscheck.mc_covered)
    (Engine.Crosscheck.run ~trials:Engine.Crosscheck.default_trials
       (List.map
          (fun qty -> Q.point qty Zeroconf.Params.figure2 ~n:4 ~r:2.)
          [ Q.Mean_cost; Q.Error_probability ]))

let () =
  Alcotest.run "engine"
    [ ( "consistency",
        [ Alcotest.test_case "analytic == kernel (bit)" `Quick
            test_kernel_bit_identity;
          Alcotest.test_case "sweeps == points (bit)" `Quick
            test_sweep_matches_points;
          Alcotest.test_case "n-sweep handles any order" `Quick
            test_n_sweep_any_order;
          Alcotest.test_case "analytic vs dtmc <= 1e-9" `Quick
            test_dtmc_agreement;
          Alcotest.test_case "mc inside its CI" `Slow test_mc_within_ci;
          Alcotest.test_case "crosscheck acceptance point" `Quick
            test_crosscheck_acceptance;
          Alcotest.test_case "mc shares a run per sampling stream" `Quick
            test_mc_shared_streams ] );
      ( "planner",
        [ Alcotest.test_case "routing" `Quick test_planner_routing;
          Alcotest.test_case "provenance" `Quick test_provenance;
          Alcotest.test_case "query validation" `Quick test_validation;
          Alcotest.test_case "r = 0 boundary (C_n(0) = n c + q E)" `Quick
            test_r_zero_boundary ] ) ]
