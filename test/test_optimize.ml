module O = Zeroconf.Optimize
module Params = Zeroconf.Params
module Cost = Zeroconf.Cost

let check_close ?(tol = 1e-6) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let fig2 = Params.figure2

(* ---------------- nu (Sec. 4.4) ---------------- *)

let test_nu_figure2 () =
  (* the paper: E = 1e35, 1 - l = 1e-15 gives nu = 3, explaining why
     C_1, C_2 are invisible in Figure 2 *)
  Alcotest.(check int) "nu = 3" 3 (O.min_useful_probes fig2)

let test_nu_realistic () =
  (* E = 5e20, 1 - l = 1e-12: ceil(20.7/12) = 2, the Sec. 6 result *)
  Alcotest.(check int) "nu = 2" 2 (O.min_useful_probes Params.realistic_ethernet)

let test_nu_lossless_is_one () =
  let p =
    Params.v ~name:"lossless"
      ~delay:(Dist.Families.shifted_exponential ~mass:1. ~rate:10. ~delay:1. ())
      ~q:0.1 ~probe_cost:1. ~error_cost:1e20
  in
  Alcotest.(check int) "no loss -> one probe suffices" 1 (O.min_useful_probes p)

let test_nu_cheap_error_is_one () =
  let p = Params.with_costs ~error_cost:0.5 fig2 in
  Alcotest.(check int) "cheap errors need no insurance" 1 (O.min_useful_probes p)

(* ---------------- r_opt (Sec. 4.2) ---------------- *)

let test_optimal_r_figure2_values () =
  (* regression pins, cross-checked against a fine independent scan *)
  let r3 = O.optimal_r fig2 ~n:3 in
  check_close ~tol:1e-3 "r_opt(3)" 2.1416 r3.Numerics.Minimize.x;
  check_close ~tol:1e-3 "C_3 min" 12.6014 r3.Numerics.Minimize.fx;
  let r4 = O.optimal_r fig2 ~n:4 in
  check_close ~tol:1e-3 "r_opt(4)" 1.2436 r4.Numerics.Minimize.x

let test_optimal_r_is_stationary () =
  List.iter
    (fun n ->
      let r = (O.optimal_r fig2 ~n).Numerics.Minimize.x in
      let d = Numerics.Derivative.richardson ~f:(fun r -> Cost.mean fig2 ~n ~r) r in
      (* scale the tolerance with the cost magnitude *)
      let scale = Cost.mean fig2 ~n ~r in
      Alcotest.(check bool)
        (Printf.sprintf "dC_%d/dr ~ 0 at r_opt (got %g)" n d)
        true
        (Float.abs d < 1e-3 *. scale))
    [ 3; 4; 5; 6 ]

let test_optimal_r_beats_neighbours () =
  List.iter
    (fun n ->
      let res = O.optimal_r fig2 ~n in
      let r = res.Numerics.Minimize.x and fx = res.Numerics.Minimize.fx in
      List.iter
        (fun dr ->
          let r' = Float.max 0. (r +. dr) in
          Alcotest.(check bool)
            (Printf.sprintf "C_%d(%g) >= min" n r')
            true
            (Cost.mean fig2 ~n ~r:r' >= fx -. 1e-9))
        [ -0.5; -0.1; 0.1; 0.5; 2. ])
    [ 3; 5; 8 ]

let test_r_opt_decreases_with_n () =
  (* the paper: "The higher n is chosen, the smaller r_opt" *)
  let previous = ref infinity in
  List.iter
    (fun n ->
      let r = (O.optimal_r fig2 ~n).Numerics.Minimize.x in
      Alcotest.(check bool) (Printf.sprintf "r_opt(%d) < r_opt(%d)" n (n - 1)) true
        (r < !previous);
      previous := r)
    [ 3; 4; 5; 6; 7; 8 ]

let test_min_cost_increases_past_three () =
  (* the paper: C_3(r_opt) < C_4(r_opt) < ... < C_8(r_opt) *)
  let costs =
    List.map (fun n -> (O.optimal_r fig2 ~n).Numerics.Minimize.fx) [ 3; 4; 5; 6; 7; 8 ]
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "increasing chain" true (increasing costs)

(* ---------------- N(r) and C_min (Sec. 4.4) ---------------- *)

let test_optimal_n_matches_exhaustive () =
  List.iter
    (fun r ->
      let n_found, cost_found = O.optimal_n fig2 ~r in
      let n_brute, cost_brute =
        List.fold_left
          (fun (bn, bc) n ->
            let c = Cost.mean fig2 ~n ~r in
            if c < bc then (n, c) else (bn, bc))
          (0, infinity) (List.init 64 succ)
      in
      Alcotest.(check int) (Printf.sprintf "N(%g)" r) n_brute n_found;
      check_close ~tol:1e-9 "same cost" cost_brute cost_found)
    [ 0.2; 0.5; 1.; 2.; 4.; 6. ]

let test_optimal_n_non_increasing_in_r () =
  (* longer listening periods never ask for more probes *)
  let previous = ref max_int in
  Array.iter
    (fun r ->
      let n, _ = O.optimal_n fig2 ~r in
      Alcotest.(check bool) (Printf.sprintf "N non-increasing at %g" r) true
        (n <= !previous);
      previous := n)
    (Numerics.Grid.linspace 0.3 6. 30)

let test_min_cost_is_lower_envelope () =
  List.iter
    (fun r ->
      let envelope = snd (O.optimal_n fig2 ~r) in
      List.iter
        (fun n ->
          Alcotest.(check bool)
            (Printf.sprintf "C_min(%g) <= C_%d(%g)" r n r)
            true
            (envelope <= Cost.mean fig2 ~n ~r +. 1e-9))
        [ 1; 2; 3; 4; 5; 6; 7; 8 ])
    [ 0.5; 1.; 2.; 3. ]

let test_error_under_optimal_n () =
  let r = 2. in
  let n, _ = O.optimal_n fig2 ~r in
  check_close ~tol:1e-9 "consistent with direct computation"
    (Float.log10 (Zeroconf.Reliability.error_probability fig2 ~n ~r))
    (O.log10_error_under_optimal_n fig2 ~r)

(* ---------------- global optimum (Sec. 6) ---------------- *)

let test_global_optimum_realistic_matches_paper () =
  let o = O.global_optimum Params.realistic_ethernet in
  Alcotest.(check int) "n = 2" 2 o.O.n;
  check_close ~tol:5e-3 "r ~ 1.75" 1.7484 o.O.r;
  Alcotest.(check bool)
    (Printf.sprintf "error prob %.3g ~ 4e-22" o.O.error_prob)
    true
    (o.O.error_prob > 3.5e-22 && o.O.error_prob < 4.5e-22)

let test_global_optimum_figure2 () =
  let o = O.global_optimum fig2 in
  Alcotest.(check int) "n = 3 on figure2" 3 o.O.n;
  check_close ~tol:5e-3 "r_opt" 2.1416 o.O.r

let test_global_optimum_dominates_grid () =
  let o = O.global_optimum fig2 in
  List.iter
    (fun n ->
      Array.iter
        (fun r ->
          Alcotest.(check bool)
            (Printf.sprintf "optimum <= C(%d, %g)" n r)
            true
            (o.O.cost <= Cost.mean fig2 ~n ~r +. 1e-9))
        (Numerics.Grid.linspace 0.1 6. 25))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* a full scan of r_opt(n) over n = 1 .. 48: the first best pair, and
   the floor (1-q) 49 c that rules out every larger n; on the presets,
   and on figure2 at c = 0.1, whose optimum sits at n = 12 *)
let test_global_optimum_matches_full_scan () =
  List.iter
    (fun (name, (p : Params.t)) ->
      let best = ref None in
      for n = 1 to 48 do
        let { Numerics.Minimize.x = r; fx = cost } = O.optimal_r p ~n in
        match !best with
        | Some (_, _, c) when c <= cost -> ()
        | _ -> best := Some (n, r, cost)
      done;
      let n, r, cost = Option.get !best in
      Alcotest.(check bool)
        (name ^ ": n > 48 cannot win") true
        ((1. -. p.q) *. 49. *. p.probe_cost > cost);
      let o = O.global_optimum p in
      Alcotest.(check (triple int (float 0.) (float 0.)))
        (name ^ ": same (n, r, cost)") (n, r, cost) (o.O.n, o.O.r, o.O.cost);
      Alcotest.(check (float 0.))
        (name ^ ": error probability")
        (Zeroconf.Reliability.error_probability p ~n ~r)
        o.O.error_prob)
    (("figure2, c = 0.1", Params.with_costs ~probe_cost:0.1 fig2) :: Params.presets)

(* no bound can end the scan by n = 4096: no postage, or no reply for so
   long that 4096 probes' postage stays below every cost *)
let test_global_optimum_refusals () =
  let refused what p prefix =
    match O.global_optimum p with
    | _ -> Alcotest.failf "%s was not refused" what
    | exception Invalid_argument msg ->
        Alcotest.(check bool) msg true (String.starts_with ~prefix msg)
  in
  refused "c = 0"
    (Params.with_costs ~probe_cost:0. fig2)
    "Optimize.global_optimum: the postage of 4096 probes at c = 0, 0, is not above";
  refused "a reply-free 4.6e18 s"
    (Params.with_delay fig2
       (Dist.Families.shifted_exponential ~mass:(1. -. 1e-15) ~rate:10.
          ~delay:4611686018427387903. ()))
    "Optimize.global_optimum: the postage of 4096 probes at c = 2, 8066.02, is not \
     above the least cost 4.54076e+18 (no reply before 4.61169e+18 s)"

let () =
  Alcotest.run "optimize"
    [ ( "nu",
        [ Alcotest.test_case "figure2" `Quick test_nu_figure2;
          Alcotest.test_case "realistic" `Quick test_nu_realistic;
          Alcotest.test_case "lossless" `Quick test_nu_lossless_is_one;
          Alcotest.test_case "cheap error" `Quick test_nu_cheap_error_is_one ] );
      ( "optimal r",
        [ Alcotest.test_case "figure2 values" `Quick test_optimal_r_figure2_values;
          Alcotest.test_case "stationarity" `Quick test_optimal_r_is_stationary;
          Alcotest.test_case "beats neighbours" `Quick test_optimal_r_beats_neighbours;
          Alcotest.test_case "decreasing in n" `Quick test_r_opt_decreases_with_n;
          Alcotest.test_case "minima ordered" `Quick test_min_cost_increases_past_three ] );
      ( "optimal n",
        [ Alcotest.test_case "matches exhaustive" `Quick test_optimal_n_matches_exhaustive;
          Alcotest.test_case "non-increasing" `Quick test_optimal_n_non_increasing_in_r;
          Alcotest.test_case "lower envelope" `Quick test_min_cost_is_lower_envelope;
          Alcotest.test_case "error under optimal n" `Quick test_error_under_optimal_n ] );
      ( "global optimum",
        [ Alcotest.test_case "Sec. 6 headline" `Quick
            test_global_optimum_realistic_matches_paper;
          Alcotest.test_case "figure2" `Quick test_global_optimum_figure2;
          Alcotest.test_case "dominates grid" `Quick test_global_optimum_dominates_grid;
          Alcotest.test_case "matches full scan" `Quick
            test_global_optimum_matches_full_scan;
          Alcotest.test_case "refusals" `Quick test_global_optimum_refusals ] ) ]
