module V = Numerics.Vector

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let check_vec msg expected actual =
  Alcotest.(check bool) msg true (V.approx_eq ~rtol:1e-9 ~atol:1e-12 expected actual)

(* ---------------- vectors ---------------- *)

let test_vector_ops () =
  check_vec "add" [| 4.; 6. |] (V.add [| 1.; 2. |] [| 3.; 4. |]);
  check_vec "sub" [| -2.; -2. |] (V.sub [| 1.; 2. |] [| 3.; 4. |]);
  check_vec "scale" [| 2.; 4. |] (V.scale 2. [| 1.; 2. |]);
  check_vec "axpy" [| 5.; 8. |] (V.axpy ~alpha:2. [| 1.; 2. |] [| 3.; 4. |]);
  check_close "dot" 11. (V.dot [| 1.; 2. |] [| 3.; 4. |])

let test_vector_norms () =
  check_close "norm1" 7. (V.norm1 [| 3.; -4. |]);
  check_close "norm2" 5. (V.norm2 [| 3.; -4. |]);
  check_close "norm_inf" 4. (V.norm_inf [| 3.; -4. |])

let test_vector_max_index () =
  Alcotest.(check int) "max index" 2 (V.max_index [| 1.; 5.; 9.; 9. |]);
  Alcotest.check_raises "empty" (Invalid_argument "Vector.max_index: empty")
    (fun () -> ignore (V.max_index [||]))

let test_vector_mismatch () =
  Alcotest.check_raises "dim mismatch"
    (Invalid_argument "Vector.add: dimension mismatch") (fun () ->
      ignore (V.add [| 1. |] [| 1.; 2. |]))

(* ---------------- sparse elimination ---------------- *)

(* A random system x = b + Q x: [m] states, a random subset of them
   unknown, each row a few random entries (repeats allowed) scaled to a
   total in [0.5, 1), so I - Q on the unknowns is a nonsingular
   M-matrix. *)
let sparse_system_gen =
  QCheck.Gen.(
    let* m = int_range 1 40 in
    let* seed = int_range 0 1_000_000 in
    return
      (let rng = Numerics.Rng.create seed in
       let unknown = Array.init m (fun _ -> Numerics.Rng.float rng < 0.8) in
       let rows =
         Array.init m (fun _ ->
             let k = 1 + Numerics.Rng.int rng (min m 6) in
             let cols = Array.init k (fun _ -> Numerics.Rng.int rng m) in
             let w = Array.init k (fun _ -> Numerics.Rng.float rng +. 0.01) in
             let scale =
               (0.5 +. (0.499 *. Numerics.Rng.float rng)) /. Numerics.Safe_float.sum w
             in
             (cols, Array.map (fun v -> v *. scale) w))
       in
       let b = Array.init m (fun _ -> 10. *. Numerics.Rng.float rng) in
       (unknown, rows, b)))

let prop_sparse_residual =
  QCheck.Test.make ~name:"residual is tiny on random M-matrix systems" ~count:300
    (QCheck.make sparse_system_gen)
    (fun (unknown, rows, b) ->
      let x = Dtmc.Sparse.solve ~unknown ~row:(Array.get rows) b in
      let scale = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1. x in
      let ok = ref true in
      Array.iteri
        (fun i u ->
          if u then begin
            let cols, w = rows.(i) in
            let r = ref (b.(i) -. x.(i)) in
            Array.iteri (fun e j -> if unknown.(j) then r := !r +. (w.(e) *. x.(j))) cols;
            if Float.abs !r > 1e-12 *. scale then ok := false
          end
          else if x.(i) <> 0. then ok := false)
        unknown;
      !ok)

let test_sparse_hand_solved () =
  (* x0 = 1 + 0.5 x1, x1 = 2 + 0.5 x0 + 0.25 x1 (the 0.25 split in two
     entries); x2 is known, so its column drops out *)
  let rows =
    [| ([| 1; 2 |], [| 0.5; 0.5 |]);
       ([| 0; 1; 1; 2 |], [| 0.5; 0.125; 0.125; 0.25 |]);
       ([| 2 |], [| 1. |]) |]
  in
  let x =
    Dtmc.Sparse.solve ~unknown:[| true; true; false |] ~row:(Array.get rows)
      [| 1.; 2.; 5. |]
  in
  check_vec "solution" [| 3.5; 5.; 0. |] x

let test_sparse_zero_pivot () =
  (* a closed cycle and a certain self-loop never leave the unknowns *)
  let cycle = [| ([| 1 |], [| 1. |]); ([| 0 |], [| 1. |]) |] in
  Alcotest.check_raises "cycle" Dtmc.Sparse.Singular (fun () ->
      ignore (Dtmc.Sparse.solve ~unknown:[| true; true |] ~row:(Array.get cycle) [| 1.; 1. |]));
  let loop = [| ([| 0 |], [| 1. |]) |] in
  Alcotest.check_raises "self-loop" Dtmc.Sparse.Singular (fun () ->
      ignore (Dtmc.Sparse.solve ~unknown:[| true |] ~row:(Array.get loop) [| 0. |]))

let () =
  Alcotest.run "linalg"
    [ ( "vector",
        [ Alcotest.test_case "ops" `Quick test_vector_ops;
          Alcotest.test_case "norms" `Quick test_vector_norms;
          Alcotest.test_case "max index" `Quick test_vector_max_index;
          Alcotest.test_case "mismatch" `Quick test_vector_mismatch ] );
      ( "sparse",
        [ Alcotest.test_case "hand solved" `Quick test_sparse_hand_solved;
          Alcotest.test_case "zero pivot" `Quick test_sparse_zero_pivot;
          QCheck_alcotest.to_alcotest prop_sparse_residual ] ) ]
