module G = Numerics.Grid

let check_floats = Alcotest.(check (array (float 1e-12)))

let test_linspace_basic () =
  check_floats "five points" [| 0.; 0.25; 0.5; 0.75; 1. |] (G.linspace 0. 1. 5);
  check_floats "two points" [| 2.; 5. |] (G.linspace 2. 5. 2)

let test_linspace_endpoints_exact () =
  let g = G.linspace 0.1 0.7 7 in
  Alcotest.(check (float 0.)) "first exact" 0.1 g.(0);
  Alcotest.(check (float 0.)) "last exact" 0.7 g.(6)

let test_linspace_descending () =
  check_floats "descending" [| 1.; 0.5; 0. |] (G.linspace 1. 0. 3)

let test_linspace_errors () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Grid.linspace: n < 1")
    (fun () -> ignore (G.linspace 0. 1. 0));
  Alcotest.check_raises "n = 1 with span"
    (Invalid_argument "Grid.linspace: n = 1 with a <> b") (fun () ->
      ignore (G.linspace 0. 1. 1));
  check_floats "n = 1 degenerate ok" [| 3. |] (G.linspace 3. 3. 1)

let test_map_sweep () =
  let swept = G.map_sweep (fun x -> x *. x) [| 1.; 2. |] in
  Alcotest.(check (array (pair (float 0.) (float 0.))))
    "pairs" [| (1., 1.); (2., 4.) |] swept

let prop_linspace_monotone =
  QCheck.Test.make ~name:"linspace is monotone for a < b" ~count:300
    QCheck.(triple (float_range (-100.) 0.) (float_range 0.1 100.) (int_range 2 200))
    (fun (a, b, n) ->
      let g = G.linspace a b n in
      Array.length g = n
      && Array.for_all Fun.id (Array.init (n - 1) (fun i -> g.(i) < g.(i + 1))))

let () =
  Alcotest.run "grid"
    [ ( "linspace",
        [ Alcotest.test_case "basic" `Quick test_linspace_basic;
          Alcotest.test_case "endpoints exact" `Quick test_linspace_endpoints_exact;
          Alcotest.test_case "descending" `Quick test_linspace_descending;
          Alcotest.test_case "errors" `Quick test_linspace_errors ] );
      ( "arange/midpoints",
        [ Alcotest.test_case "map_sweep" `Quick test_map_sweep ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_linspace_monotone ] ) ]
