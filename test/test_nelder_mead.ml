module Nm = Numerics.Nelder_mead

let check_close ?(tol = 1e-4) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let test_quadratic_bowl () =
  let f x = ((x.(0) -. 3.) ** 2.) +. ((x.(1) +. 1.) ** 2.) in
  let r = Nm.restarted ~f [| 0.; 0. |] in
  Alcotest.(check bool) "converged" true r.Nm.converged;
  check_close "x0" 3. r.Nm.x.(0);
  check_close "x1" (-1.) r.Nm.x.(1);
  check_close ~tol:1e-8 "value" 0. r.Nm.fx

let test_rosenbrock () =
  let f x =
    (100. *. ((x.(1) -. (x.(0) *. x.(0))) ** 2.)) +. ((1. -. x.(0)) ** 2.)
  in
  let r = Nm.restarted ~f [| -1.2; 1. |] in
  check_close ~tol:1e-3 "x0" 1. r.Nm.x.(0);
  check_close ~tol:1e-3 "x1" 1. r.Nm.x.(1)

let test_one_dimensional () =
  let f x = (x.(0) -. 7.) ** 2. in
  let r = Nm.restarted ~f [| 0. |] in
  check_close ~tol:1e-4 "1-d smooth" 7. r.Nm.x.(0);
  (* kinks can stall the simplex when vertices straddle the minimum
     symmetrically; restarts get close but exactness is not promised *)
  let kink x = Float.abs (x.(0) -. 7.) in
  let r = Nm.restarted ~f:kink [| 0. |] in
  check_close ~tol:0.2 "1-d kink (approximate)" 7. r.Nm.x.(0)

let test_higher_dimensional () =
  (* 5-d sphere shifted *)
  let centre = [| 1.; -2.; 3.; -4.; 5. |] in
  let f x =
    Numerics.Safe_float.sum (Array.mapi (fun i xi -> (xi -. centre.(i)) ** 2.) x)
  in
  let r = Nm.restarted ~f (Array.make 5 0.) in
  Array.iteri
    (fun i c -> check_close ~tol:1e-3 (Printf.sprintf "coord %d" i) c r.Nm.x.(i))
    centre

let test_infinity_as_constraint () =
  (* minimize (x - 2)^2 subject to x <= 1 encoded by infinity *)
  let f x = if x.(0) > 1. then infinity else (x.(0) -. 2.) ** 2. in
  let r = Nm.restarted ~f [| 0. |] in
  check_close ~tol:1e-5 "constrained optimum at the boundary" 1. r.Nm.x.(0)

let test_respects_max_iter () =
  (* a line has no minimum: each of the four runs walks downhill (by
     about 1e60, so the last one still ends finite) until its budget of
     200 iterations per coordinate is spent *)
  let f x = x.(0) in
  let r = Nm.restarted ~f [| 10. |] in
  Alcotest.(check bool) "not converged" false r.Nm.converged;
  Alcotest.(check int) "stopped at budget" (4 * 200) r.Nm.iterations

let test_guards () =
  Alcotest.check_raises "empty start"
    (Invalid_argument "Nelder_mead.minimize: empty starting point") (fun () ->
      ignore (Nm.restarted ~f:(fun _ -> 0.) [||]));
  Alcotest.check_raises "infinite start"
    (Invalid_argument "Nelder_mead.minimize: objective not finite at start")
    (fun () -> ignore (Nm.restarted ~f:(fun _ -> infinity) [| 0. |]));
  Alcotest.check_raises "bad scale"
    (Invalid_argument "Nelder_mead.minimize: scale dimension mismatch")
    (fun () -> ignore (Nm.restarted ~scale:[| 1. |] ~f:(fun _ -> 0.) [| 0.; 0. |]))

let test_calibration_cross_check () =
  (* joint (log E, c) search reproduces the Sec. 4.5 wireless numbers:
     minimize the violation of (r_opt(4) = 2, n = 4 optimal at margin) *)
  let network =
    Zeroconf.Params.v ~name:"sec45"
      ~delay:(Dist.Families.shifted_exponential ~mass:(1. -. 1e-5) ~rate:10. ~delay:1. ())
      ~q:(Zeroconf.Params.q_of_hosts 1000) ~probe_cost:0. ~error_cost:0.
  in
  let objective x =
    let log_e = x.(0) and c = x.(1) in
    if c <= 0. || c > 32. || log_e < 20. || log_e > 120. then infinity
    else begin
      let p =
        Zeroconf.Params.with_costs ~probe_cost:c ~error_cost:(exp log_e) network
      in
      (* squared violations: r_opt(4) = 2 and indifference with n = 5 *)
      let r4 = (Zeroconf.Optimize.optimal_r p ~n:4).Numerics.Minimize.x in
      let c4 = Zeroconf.Cost.mean p ~n:4 ~r:r4 in
      let r5 = (Zeroconf.Optimize.optimal_r p ~n:5).Numerics.Minimize.x in
      let c5 = Zeroconf.Cost.mean p ~n:5 ~r:r5 in
      ((r4 -. 2.) ** 2.) +. (((c4 -. c5) /. c4) ** 2.)
    end
  in
  let r = Nm.restarted ~f:objective [| log 1e20; 2. |] in
  let e = exp r.Nm.x.(0) and c = r.Nm.x.(1) in
  Alcotest.(check bool)
    (Printf.sprintf "E = %.3g in [1e20, 2e21]" e)
    true
    (e > 1e20 && e < 2e21);
  Alcotest.(check bool)
    (Printf.sprintf "c = %.3f in [2, 4.5]" c)
    true
    (c > 2. && c < 4.5)

let () =
  Alcotest.run "nelder_mead"
    [ ( "classic objectives",
        [ Alcotest.test_case "quadratic" `Quick test_quadratic_bowl;
          Alcotest.test_case "rosenbrock" `Quick test_rosenbrock;
          Alcotest.test_case "1-d" `Quick test_one_dimensional;
          Alcotest.test_case "5-d" `Quick test_higher_dimensional ] );
      ( "robustness",
        [ Alcotest.test_case "infinity constraints" `Quick test_infinity_as_constraint;
          Alcotest.test_case "iteration budget" `Quick test_respects_max_iter;
          Alcotest.test_case "guards" `Quick test_guards ] );
      ( "application",
        [ Alcotest.test_case "Sec. 4.5 joint calibration" `Slow
            test_calibration_cross_check ] ) ]
