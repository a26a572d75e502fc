module T = Engine.Tradeoff
module Params = Zeroconf.Params

let fig2 = Params.figure2
let front = T.front ~n_max:8 ~r_points:100 ~r_max:6. fig2

(* every design [front] chooses from: n = 1 .. n_max against r_points
   periods up to r_max, from the point-wise closed forms (the kernel
   route gives the same bits) *)
let grid ~r_points ~r_max =
  Numerics.Grid.linspace (r_max /. float_of_int r_points) r_max r_points

let designs ~n_max ~r_points ~r_max p =
  List.concat_map
    (fun n ->
      Array.to_list
        (Array.map
           (fun r ->
             { T.n;
               r;
               cost = Zeroconf.Cost.mean p ~n ~r;
               log10_error = Zeroconf.Reliability.log10_error_probability p ~n ~r })
           (grid ~r_points ~r_max)))
    (List.init n_max (fun i -> i + 1))

let test_front_nonempty_and_sorted () =
  Alcotest.(check bool) "non-empty" true (front <> []);
  let rec sorted = function
    | (a : T.design) :: (b :: _ as rest) -> a.T.cost <= b.T.cost && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by cost" true (sorted front)

let test_front_error_strictly_decreasing () =
  let rec strict = function
    | (a : T.design) :: (b :: _ as rest) ->
        a.T.log10_error > b.T.log10_error && strict rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly improving reliability" true (strict front)

let test_front_members_undominated () =
  let all = designs ~n_max:8 ~r_points:100 ~r_max:6. fig2 in
  List.iter
    (fun (f : T.design) ->
      List.iter
        (fun (d : T.design) ->
          let dominates =
            (d.T.cost < f.T.cost && d.T.log10_error <= f.T.log10_error)
            || (d.T.cost <= f.T.cost && d.T.log10_error < f.T.log10_error)
          in
          if dominates then
            Alcotest.failf "front member (n=%d, r=%g) dominated by (n=%d, r=%g)"
              f.T.n f.T.r d.T.n d.T.r)
        all)
    (* spot-check a handful of front members against everything *)
    (List.filteri (fun i _ -> i mod 17 = 0) front)

let test_paper_tension_on_front () =
  (* the paper's claim: the cheapest design is not the most reliable *)
  match (front, List.rev front) with
  | cheapest :: _, most_reliable :: _ ->
      Alcotest.(check bool) "cheapest is least reliable end" true
        (cheapest.T.log10_error > most_reliable.T.log10_error);
      Alcotest.(check bool) "reliability costs money" true
        (most_reliable.T.cost > cheapest.T.cost)
  | _ -> Alcotest.fail "degenerate front"

let test_global_optimum_on_front () =
  (* the cost-optimal design must be the front's cheap end (up to grid
     resolution) *)
  let opt = Zeroconf.Optimize.global_optimum fig2 in
  match front with
  | cheapest :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "front cheap end %.3f ~ global optimum %.3f"
           cheapest.T.cost opt.Zeroconf.Optimize.cost)
        true
        (cheapest.T.cost < opt.Zeroconf.Optimize.cost *. 1.01)
  | [] -> Alcotest.fail "empty front"

let test_enumerate_size () =
  (* the front is drawn from the n_max * r_points grid designs *)
  let front = T.front ~n_max:5 ~r_points:40 ~r_max:4. fig2 in
  let all = designs ~n_max:5 ~r_points:40 ~r_max:4. fig2 in
  Alcotest.(check int) "n_max * r_points" 200 (List.length all);
  List.iter
    (fun (d : T.design) ->
      Alcotest.(check bool)
        (Printf.sprintf "(n=%d, r=%g) is a grid design" d.T.n d.T.r)
        true (List.mem d all))
    front

(* every design of a front, on grids of several shapes, is in bits the
   closed forms at its own (n, r): the cost and error plans share one
   columnar batch, and a transpose that reads a neighbour's slot fails
   here *)
let test_designs_bits () =
  let bits = Int64.bits_of_float in
  List.iter
    (fun (p, n_max, r_points, r_max) ->
      List.iter
        (fun (d : T.design) ->
          let n = d.T.n and r = d.T.r in
          if
            bits d.T.cost <> bits (Zeroconf.Cost.mean p ~n ~r)
            || bits d.T.log10_error
               <> bits (Zeroconf.Reliability.log10_error_probability p ~n ~r)
          then Alcotest.failf "%s (n = %d, r = %h)" p.Params.name n r)
        (T.front ~n_max ~r_points ~r_max p))
    [ (fig2, 8, 100, 6.); (fig2, 1, 7, 3.); (fig2, 12, 37, 8.);
      (Params.realistic_ethernet, 5, 40, 4.) ]

let test_knee_is_interior () =
  match T.knee front with
  | None -> Alcotest.fail "expected a knee on a substantial front"
  | Some k ->
      let first = List.hd front and last = List.hd (List.rev front) in
      Alcotest.(check bool) "knee differs from the cheap end" true (k <> first);
      Alcotest.(check bool) "knee differs from the reliable end" true (k <> last)

let test_knee_degenerate_fronts () =
  Alcotest.(check bool) "no knee on empty" true (T.knee [] = None);
  let d = { T.n = 1; r = 1.; cost = 1.; log10_error = -1. } in
  Alcotest.(check bool) "no knee on short fronts" true
    (T.knee [ d ] = None && T.knee [ d; d ] = None)

let test_guards () =
  Alcotest.check_raises "n_max = 0"
    (Invalid_argument "Tradeoff.enumerate: n_max < 1") (fun () ->
      ignore (T.front ~n_max:0 fig2))

let () =
  Alcotest.run "tradeoff"
    [ ( "front structure",
        [ Alcotest.test_case "sorted" `Quick test_front_nonempty_and_sorted;
          Alcotest.test_case "strictly improving" `Quick
            test_front_error_strictly_decreasing;
          Alcotest.test_case "undominated" `Quick test_front_members_undominated;
          Alcotest.test_case "enumerate size" `Quick test_enumerate_size;
          Alcotest.test_case "designs = closed forms, bitwise" `Quick
            test_designs_bits ] );
      ( "paper claims",
        [ Alcotest.test_case "cost/reliability tension" `Quick
            test_paper_tension_on_front;
          Alcotest.test_case "optimum at cheap end" `Quick
            test_global_optimum_on_front ] );
      ( "knee",
        [ Alcotest.test_case "interior" `Quick test_knee_is_interior;
          Alcotest.test_case "degenerate" `Quick test_knee_degenerate_fronts;
          Alcotest.test_case "guards" `Quick test_guards ] ) ]
