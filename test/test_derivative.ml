module D = Numerics.Derivative

let check_close ?(tol = 1e-6) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let test_central_polynomial () =
  check_close "d/dx x^2 at 3" 6. (Oracle.central ~f:(fun x -> x *. x) 3.);
  check_close "d/dx x^3 at 2" 12. (Oracle.central ~f:(fun x -> x ** 3.) 2.)

let test_central_transcendental () =
  check_close "d/dx sin at 0" 1. (Oracle.central ~f:sin 0.);
  check_close "d/dx exp at 1" (exp 1.) (Oracle.central ~f:exp 1.)

let test_richardson_beats_central () =
  let f = exp in
  let x = 2. in
  let truth = exp 2. in
  let err_central = Float.abs (Oracle.central ~f x -. truth) in
  let err_rich = Float.abs (D.richardson ~f x -. truth) in
  Alcotest.(check bool)
    (Printf.sprintf "richardson (%.2e) <= central (%.2e)" err_rich err_central)
    true
    (err_rich <= err_central +. 1e-14)

let test_richardson_high_accuracy () =
  check_close ~tol:1e-10 "d/dx log at 5" 0.2 (D.richardson ~f:log 5.)

let test_log_elasticity () =
  (* f = x^k has constant elasticity k *)
  check_close ~tol:1e-6 "power law k = 3" 3.
    (D.log_elasticity ~f:(fun x -> x ** 3.) 7.);
  check_close ~tol:1e-6 "power law k = -0.5" (-0.5)
    (D.log_elasticity ~f:(fun x -> x ** -0.5) 2.);
  (* constants have zero elasticity *)
  check_close ~tol:1e-9 "constant" 0. (D.log_elasticity ~f:(fun _ -> 42.) 5.)

let test_log_elasticity_guards () =
  Alcotest.check_raises "x <= 0"
    (Invalid_argument "Derivative.log_elasticity: x <= 0") (fun () ->
      ignore (D.log_elasticity ~f:(fun x -> x) 0.));
  Alcotest.check_raises "f x <= 0"
    (Invalid_argument "Derivative.log_elasticity: f x <= 0") (fun () ->
      ignore (D.log_elasticity ~f:(fun _ -> -1.) 1.))

let prop_derivative_of_affine =
  QCheck.Test.make ~name:"derivative of ax + b is a" ~count:300
    QCheck.(triple (float_range (-10.) 10.) (float_range (-10.) 10.)
              (float_range (-5.) 5.))
    (fun (a, b, x) ->
      let d = D.richardson ~f:(fun x -> (a *. x) +. b) x in
      Oracle.approx_eq ~rtol:1e-6 ~atol:1e-8 d a)

let prop_chain_rule_scaling =
  QCheck.Test.make ~name:"f(kx) differentiates to k f'(kx)" ~count:200
    QCheck.(pair (float_range 0.5 3.) (float_range 0.2 2.))
    (fun (k, x) ->
      let d = D.richardson ~f:(fun x -> sin (k *. x)) x in
      Oracle.approx_eq ~rtol:1e-5 ~atol:1e-8 d (k *. cos (k *. x)))

let () =
  Alcotest.run "derivative"
    [ ( "central",
        [ Alcotest.test_case "polynomial" `Quick test_central_polynomial;
          Alcotest.test_case "transcendental" `Quick test_central_transcendental ] );
      ( "richardson",
        [ Alcotest.test_case "beats central" `Quick test_richardson_beats_central;
          Alcotest.test_case "high accuracy" `Quick test_richardson_high_accuracy ] );
      ( "elasticity",
        [ Alcotest.test_case "power laws" `Quick test_log_elasticity;
          Alcotest.test_case "guards" `Quick test_log_elasticity_guards ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_derivative_of_affine; prop_chain_rule_scaling ] ) ]
