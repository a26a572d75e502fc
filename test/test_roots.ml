module R = Numerics.Roots

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let test_bisect_simple () =
  let r = R.bisect ~f:(fun x -> (x *. x) -. 2.) 0. 2. in
  check_close "sqrt 2" (sqrt 2.) r.R.root

let test_bisect_endpoint_root () =
  let r = R.bisect ~f:(fun x -> x) 0. 1. in
  check_close "root at endpoint" 0. r.R.root;
  Alcotest.(check int) "no iterations" 0 r.R.iterations

let test_bisect_reversed_interval () =
  let r = R.bisect ~f:(fun x -> x -. 0.25) 1. 0. in
  check_close "handles b < a" 0.25 r.R.root

let test_bisect_rejects_same_sign () =
  Alcotest.check_raises "no bracket"
    (Invalid_argument "Roots.bisect: endpoints do not bracket a root")
    (fun () -> ignore (R.bisect ~f:(fun x -> (x *. x) +. 1.) (-1.) 1.))

let prop_bisect_respects_bracket =
  QCheck.Test.make ~name:"bisection result stays inside the bracket" ~count:300
    QCheck.(pair (float_range (-10.) 0.) (float_range 0.1 10.))
    (fun (a, b) ->
      let f x = x in
      let r = R.bisect ~f a b in
      r.R.root >= a && r.R.root <= b)

let () =
  Alcotest.run "roots"
    [ ( "bisect",
        [ Alcotest.test_case "simple" `Quick test_bisect_simple;
          Alcotest.test_case "endpoint root" `Quick test_bisect_endpoint_root;
          Alcotest.test_case "reversed interval" `Quick test_bisect_reversed_interval;
          Alcotest.test_case "rejects same sign" `Quick test_bisect_rejects_same_sign ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_bisect_respects_bracket ] ) ]
