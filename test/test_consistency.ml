(* Cross-module consistency: one gate that exercises every route to the
   paper's two quantities on every preset scenario and a randomized
   family.  If any pair of implementations drifts apart, this suite is
   the first to know. *)

module Params = Zeroconf.Params

let check_rel ?(rtol = 1e-8) ?(atol = 0.) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.12g vs %.12g" msg expected actual)
    true
    (Oracle.approx_eq ~rtol ~atol expected actual)

let operating_points = [ (1, 0.5); (2, 1.5); (3, 2.); (4, 2.); (6, 0.8) ]

let routes_agree (p : Params.t) ~n ~r =
  let eq3 = Zeroconf.Cost.mean p ~n ~r in
  let eq4 = Zeroconf.Reliability.error_probability p ~n ~r in
  let drm = Zeroconf.Drm.build p ~n ~r in
  let label = Printf.sprintf "%s n=%d r=%g" p.Params.name n r in
  (* cost: closed form = matrix = attempts decomposition *)
  check_rel (label ^ " matrix") eq3 (Zeroconf.Drm.mean_cost drm);
  (if p.Params.q > 0. then begin
     (* attempts needs an integer host count: snap q to hosts/pool *)
     let pool = 65536 in
     let occupied = int_of_float (Float.round (p.Params.q *. float_of_int pool)) in
     if occupied > 0 && occupied < pool then begin
       let snapped = Params.with_q p (float_of_int occupied /. float_of_int pool) in
       let a =
         List.assoc "baseline"
           (Zeroconf.Attempts.compare_refinements snapped ~occupied ~pool ~n ~r ())
       in
       check_rel (label ^ " attempts") (Zeroconf.Cost.mean snapped ~n ~r)
         a.Zeroconf.Attempts.mean_cost
     end
   end);
  (* error: closed form = matrix = reachability = PCTL *)
  check_rel ~rtol:1e-8 ~atol:1e-16 (label ^ " absorption") eq4 (Zeroconf.Drm.error_probability drm);
  check_rel ~rtol:1e-8 ~atol:1e-16 (label ^ " reachability") eq4
    (Oracle.reach drm.Zeroconf.Drm.chain ~target:[ drm.Zeroconf.Drm.error ]).(drm.Zeroconf.Drm.start);
  let labels = Dtmc.Pctl.label_of_state drm.Zeroconf.Drm.chain in
  check_rel ~rtol:1e-8 ~atol:1e-16 (label ^ " pctl") eq4
    (Dtmc.Pctl.path_probability drm.Zeroconf.Drm.chain labels
       ~from:drm.Zeroconf.Drm.start
       (Dtmc.Pctl.Eventually (Dtmc.Pctl.Ap "error")));
  (* reward to first passage into error | ok = Eq. 3 *)
  check_rel ~rtol:1e-8 (label ^ " R operator") eq3
    (Oracle.expected_reward drm.Zeroconf.Drm.reward
       ~target:[ drm.Zeroconf.Drm.error; drm.Zeroconf.Drm.ok ]).(drm.Zeroconf.Drm.start);
  (* latency mean = time-reward DRM solve *)
  let timed = Params.with_costs ~probe_cost:0. ~error_cost:0. p in
  let time_drm = Zeroconf.Drm.build timed ~n ~r in
  let dist = Zeroconf.Latency.periods p ~n ~r in
  check_rel ~rtol:1e-8 (label ^ " latency mean")
    (Zeroconf.Drm.mean_cost time_drm)
    (Zeroconf.Latency.mean dist)

let test_presets () =
  List.iter
    (fun (_, p) ->
      List.iter (fun (n, r) -> routes_agree p ~n ~r) operating_points)
    Params.presets

let test_randomized_scenarios () =
  let rng = Numerics.Rng.create 123 in
  for _ = 1 to 12 do
    let loss = Numerics.Rng.uniform rng ~lo:0. ~hi:0.4 in
    let rate = Numerics.Rng.uniform rng ~lo:0.5 ~hi:15. in
    let delay = Numerics.Rng.uniform rng ~lo:0. ~hi:1.5 in
    let q = Numerics.Rng.uniform rng ~lo:0.01 ~hi:0.85 in
    let p =
      Params.v ~name:"random"
        ~delay:(Dist.Families.shifted_exponential ~mass:(1. -. loss) ~rate ~delay ())
        ~q
        ~probe_cost:(Numerics.Rng.uniform rng ~lo:0. ~hi:4.)
        ~error_cost:(Numerics.Rng.uniform rng ~lo:0. ~hi:1e5)
    in
    let n = 1 + Numerics.Rng.int rng 6 in
    let r = Numerics.Rng.uniform rng ~lo:0.05 ~hi:4. in
    routes_agree p ~n ~r
  done

let test_phase_type_delay_consistency () =
  (* a two-branch hyperexponential delay flows through every route too *)
  let delay =
    Oracle.mixture
      [ (0.6, Dist.Families.shifted_exponential ~mass:0.9 ~rate:8. ~delay:0. ());
        (0.4, Dist.Families.shifted_exponential ~mass:0.9 ~rate:1.5 ~delay:0. ()) ]
  in
  let p = Params.v ~name:"ph" ~delay ~q:0.2 ~probe_cost:1. ~error_cost:500. in
  routes_agree p ~n:3 ~r:1.

(* The DTMC oracle checks the kernel over the whole n range the kernel
   is swept on.  Error probabilities that both routes carry below the
   normal range (down to 1e-320 here) are rounded differently in their
   last subnormal digits, so there both need only be subnormal. *)
let test_dtmc_kernel_sweeps () =
  let agree what p ~n ~r expected actual =
    if
      not
        (Oracle.approx_eq ~rtol:1e-9 expected actual
        || (expected < Float.min_float && actual < Float.min_float))
    then
      Alcotest.failf "%s %s n=%d r=%g: kernel %.17g, DTMC %.17g" what p.Params.name n r
        expected actual
  in
  List.iter
    (fun (_, p) ->
      List.iter
        (fun r ->
          let k = Zeroconf.Kernel.create p ~r in
          for n = 1 to 512 do
            Zeroconf.Kernel.advance k;
            let drm = Zeroconf.Drm.build p ~n ~r in
            agree "mean cost" p ~n ~r (Zeroconf.Kernel.cost k) (Zeroconf.Drm.mean_cost drm);
            agree "error probability" p ~n ~r (Zeroconf.Kernel.error_probability k)
              (Zeroconf.Drm.error_probability drm)
          done)
        [ 0.25; 1.; 2. ])
    Params.presets

let () =
  Alcotest.run "consistency"
    [ ( "all routes agree",
        [ Alcotest.test_case "paper presets" `Quick test_presets;
          Alcotest.test_case "randomized scenarios" `Quick
            test_randomized_scenarios;
          Alcotest.test_case "phase-type delay" `Quick
            test_phase_type_delay_consistency;
          Alcotest.test_case "DTMC = kernel, ns=1:512" `Quick test_dtmc_kernel_sweeps ] ) ]
