module C = Dtmc.Chain

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let chain_of arrays labels =
  C.create ~labels (Rows.of_dense arrays)

(* ---------------- reachability ---------------- *)

(* P=? [F<=k target] per state *)
let reach_within chain ~target ~k =
  let n = C.size chain in
  Dtmc.Reachability.bounded_until chain ~phi:(Array.make n true)
    ~psi:(Array.init n (fun i -> List.mem i target)) ~k

(* diamond: s -> l (0.3) / r (0.7); l -> goal; r -> trap *)
let diamond =
  chain_of
    [| [| 0.; 0.3; 0.7; 0.; 0. |];
       [| 0.; 0.; 0.; 1.; 0. |];
       [| 0.; 0.; 0.; 0.; 1. |];
       [| 0.; 0.; 0.; 1.; 0. |];
       [| 0.; 0.; 0.; 0.; 1. |] |]
    [| "s"; "l"; "r"; "goal"; "trap" |]

let test_reachability_prob () =
  let p = Oracle.reach diamond ~target:[ 3 ] in
  check_close "from s" 0.3 p.(0);
  check_close "from l" 1. p.(1);
  check_close "from r" 0. p.(2);
  check_close "target itself" 1. p.(3);
  check_close "trap" 0. p.(4)

let test_reachability_qualitative () =
  let never = Dtmc.Reachability.never diamond ~target:[ 3 ] in
  Alcotest.(check (array bool)) "never set"
    [| false; false; true; false; true |] never;
  (* the probability-one set comes out of the precomputation as exact 1s *)
  let certain = Array.map (fun p -> p = 1.) (Oracle.reach diamond ~target:[ 3 ]) in
  Alcotest.(check (array bool)) "certain set"
    [| false; true; false; true; false |] certain

let test_reachability_vs_absorption () =
  (* on the zeroconf-like chain, reachability of [error] must equal the
     absorption probability into it *)
  let drm = Zeroconf.Drm.build Zeroconf.Params.figure2 ~n:3 ~r:1.5 in
  let via_reach =
    (Oracle.reach drm.Zeroconf.Drm.chain ~target:[ drm.Zeroconf.Drm.error ]).(drm.Zeroconf.Drm.start)
  in
  let via_absorb = Zeroconf.Drm.error_probability drm in
  check_close ~tol:1e-12 "agree" via_absorb via_reach

let test_bounded_reachability () =
  (* leave with prob 0.5 per step *)
  let c = chain_of [| [| 0.5; 0.5 |]; [| 0.; 1. |] |] [| "s"; "a" |] in
  let v = reach_within c ~target:[ 1 ] ~k:3 in
  check_close "within 3 steps" (1. -. 0.125) v.(0);
  let v0 = reach_within c ~target:[ 1 ] ~k:0 in
  check_close "horizon 0 from non-target" 0. v0.(0);
  check_close "horizon 0 from target" 1. v0.(1)

let () =
  Alcotest.run "dtmc_advanced"
    [ ( "reachability",
        [ Alcotest.test_case "probabilities" `Quick test_reachability_prob;
          Alcotest.test_case "qualitative" `Quick test_reachability_qualitative;
          Alcotest.test_case "vs absorption" `Quick test_reachability_vs_absorption;
          Alcotest.test_case "bounded" `Quick test_bounded_reachability ] ) ]
