let check_vec msg expected actual =
  Alcotest.(check bool) msg true
    (Array.length expected = Array.length actual
    && Array.for_all2
         (Oracle.approx_eq ~rtol:1e-9 ~atol:1e-12)
         expected actual)

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
    [ ( "sparse",
        [ Alcotest.test_case "hand solved" `Quick test_sparse_hand_solved;
          Alcotest.test_case "zero pivot" `Quick test_sparse_zero_pivot;
          QCheck_alcotest.to_alcotest prop_sparse_residual ] ) ]
