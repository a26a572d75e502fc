module M = Numerics.Minimize

let check_close ?(tol = 1e-6) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let parabola x = ((x -. 3.) ** 2.) +. 1.

(* the grid's values evaluated here, as a caller without streams does *)
let grid_then_brent ~samples ~f a b =
  let xs = M.grid ~samples a b in
  M.grid_then_brent ~f xs (Array.map f xs)

(* Brent's polish alone: the coarsest grid (two cells) leaves it the
   whole bracket around the better endpoint or the midpoint *)
let brent ~f a b = grid_then_brent ~samples:2 ~f a b

let test_brent_parabola () =
  let r = brent ~f:parabola 0. 10. in
  check_close "minimizer" 3. r.M.x;
  check_close "minimum" 1. r.M.fx

let test_brent_nonsmooth () =
  (* |x - 2| has a kink at the minimum: parabolic steps must fall back *)
  let r = brent ~f:(fun x -> Float.abs (x -. 2.)) 0. 5. in
  check_close ~tol:1e-5 "kink minimizer" 2. r.M.x

let test_brent_boundary_minimum () =
  (* monotone increasing: minimum at the left edge *)
  let r = brent ~f:(fun x -> x) 1. 2. in
  Alcotest.(check bool) "lands at or near the boundary" true (r.M.x < 1.01)

let test_grid_then_brent_multimodal () =
  (* two valleys; global at x = 4 (depth -2), local at x = 1 (depth -1) *)
  let f x =
    (-.exp (-.((x -. 1.) ** 2.) /. 0.05))
    -. (2. *. exp (-.((x -. 4.) ** 2.) /. 0.05))
  in
  let r = grid_then_brent ~samples:200 ~f 0. 5. in
  check_close ~tol:1e-4 "finds the global valley" 4. r.M.x

let test_grid_then_brent_plateau () =
  (* flat plateau then dip: the zeroconf C_n shape at small r *)
  let f x = if x < 2. then 10. else ((x -. 3.) ** 2.) +. 1. in
  let r = grid_then_brent ~samples:300 ~f 0. 6. in
  check_close ~tol:1e-4 "dip after plateau" 3. r.M.x

let prop_grid_then_brent_never_worse_than_grid =
  QCheck.Test.make ~name:"polish never loses to the raw grid" ~count:200
    QCheck.(float_range (-5.) 5.)
    (fun centre ->
      let f x = Float.abs (x -. centre) ** 1.5 in
      let r = grid_then_brent ~samples:64 ~f (-6.) 6. in
      (* compare against the best of the same grid *)
      let grid = Numerics.Grid.linspace (-6.) 6. 65 in
      let best_grid = Array.fold_left (fun acc x -> Float.min acc (f x)) infinity grid in
      r.M.fx <= best_grid +. 1e-12)

let () =
  Alcotest.run "minimize"
    [ ( "brent",
        [ Alcotest.test_case "parabola" `Quick test_brent_parabola;
          Alcotest.test_case "non-smooth" `Quick test_brent_nonsmooth;
          Alcotest.test_case "boundary minimum" `Quick test_brent_boundary_minimum ] );
      ( "grid_then_brent",
        [ Alcotest.test_case "multimodal" `Quick test_grid_then_brent_multimodal;
          Alcotest.test_case "plateau" `Quick test_grid_then_brent_plateau ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_grid_then_brent_never_worse_than_grid ] ) ]
