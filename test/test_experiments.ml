(* The per-experiment index of DESIGN.md, checked end to end: every
   figure's data has the paper's qualitative shape, and the numeric
   anchors reported in the paper are reproduced. *)

module E = Engine.Experiments

let check_close ?(tol = 1e-6) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let series fig label =
  List.find (fun (s : E.series) -> s.E.label = label) fig.E.series

let ys (s : E.series) = Array.map snd s.E.points

(* ---------------- Figure 2 ---------------- *)

let figures = E.all_figures ()
let figure id = List.find (fun (f : E.figure) -> f.E.id = id) figures
let fig2 = figure "fig2"

let test_fig2_has_eight_cost_curves () =
  Alcotest.(check int) "eight series" 8 (List.length fig2.E.series);
  Alcotest.(check (list string)) "labels"
    [ "C_1"; "C_2"; "C_3"; "C_4"; "C_5"; "C_6"; "C_7"; "C_8" ]
    (List.map (fun (s : E.series) -> s.E.label) fig2.E.series)

let minimum arr = Array.fold_left Float.min arr.(0) arr

let test_fig2_n12_invisible_n3_smallest () =
  (* paper: "the functions for n = 1, 2 are not visible, since their
     smallest values are much too large"; and C_3's minimum is lowest *)
  let min_of label = minimum (ys (series fig2 label)) in
  Alcotest.(check bool) "C_1 off the chart" true (min_of "C_1" > 1e6);
  Alcotest.(check bool) "C_2 off the chart" true (min_of "C_2" > 1e4);
  let m3 = min_of "C_3" in
  List.iter
    (fun l ->
      Alcotest.(check bool) (Printf.sprintf "C_3 < %s" l) true (m3 < min_of l))
    [ "C_4"; "C_5"; "C_6"; "C_7"; "C_8" ];
  (* paper's frame: the visible minima lie well under the 100 clip *)
  Alcotest.(check bool) "C_3 minimum visible" true (m3 < 100.)

let test_fig2_curves_dip_then_rise () =
  (* each visible curve has an interior minimum *)
  List.iter
    (fun label ->
      let values = ys (series fig2 label) in
      let n = Array.length values in
      let min_idx = ref 0 in
      Array.iteri (fun i v -> if v < values.(!min_idx) then min_idx := i) values;
      Alcotest.(check bool) (label ^ " has interior minimum") true
        (!min_idx > 0 && !min_idx < n - 1))
    [ "C_3"; "C_4"; "C_5"; "C_6" ]

(* ---------------- Figure 3 ---------------- *)

let fig3 = figure "fig3"

let test_fig3_step_function_decreasing () =
  let values = ys (series fig3 "N(r)") in
  let ok = ref true in
  for i = 1 to Array.length values - 1 do
    if values.(i) > values.(i - 1) then ok := false
  done;
  Alcotest.(check bool) "non-increasing" true !ok;
  Alcotest.(check bool) "integer-valued" true
    (Array.for_all (fun v -> Float.is_integer v) values)

let test_fig3_never_below_nu () =
  (* on the visible range, N(r) respects the nu = 3 bound of Sec. 4.4 *)
  let values = ys (series fig3 "N(r)") in
  Alcotest.(check bool) "N(r) >= 3 everywhere" true
    (Array.for_all (fun v -> v >= 3.) values)

(* ---------------- Figure 4 ---------------- *)

let fig4 = figure "fig4"

let test_fig4_envelope_below_each_curve () =
  let env = series fig4 "C_min" in
  Array.iter
    (fun (r, v) ->
      List.iter
        (fun n ->
          Alcotest.(check bool)
            (Printf.sprintf "C_min(%g) <= C_%d" r n)
            true
            (v <= Zeroconf.Cost.mean Zeroconf.Params.figure2 ~n ~r +. 1e-9))
        [ 3; 4; 5; 6; 7; 8 ])
    env.E.points

(* ---------------- Figures 5 and 6 ---------------- *)

let fig5 = figure "fig5"
let fig6 = figure "fig6"

let test_fig5_ordering_in_n () =
  (* more probes give lower error for every r *)
  let arrays = List.map ys fig5.E.series in
  let rec pairwise = function
    | a :: (b :: _ as rest) ->
        Array.iteri
          (fun i v ->
            Alcotest.(check bool) "monotone in n" true (b.(i) <= v +. 1e-9))
          a;
        pairwise rest
    | _ -> ()
  in
  pairwise arrays

let test_fig6_envelope_sawtooth_and_bounds () =
  let env = ys (series fig6 "E(N(r), r)") in
  (* the paper: "the error is bounded and stays roughly within the
     limits of [1e-35, 1e-54]" (log10 in [-54, -35]); allow the grid to
     flutter at the very edges *)
  let in_band = Array.map (fun v -> v >= -56. && v <= -33.) env in
  let hits = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 in_band in
  Alcotest.(check bool)
    (Printf.sprintf "%d/%d points in the paper's band" hits (Array.length env))
    true
    (float_of_int hits > 0.9 *. float_of_int (Array.length env));
  (* sawtooth: both rises and falls are present *)
  let rises = ref 0 and falls = ref 0 in
  for i = 1 to Array.length env - 1 do
    if env.(i) > env.(i - 1) +. 1e-9 then incr rises;
    if env.(i) < env.(i - 1) -. 1e-9 then incr falls
  done;
  Alcotest.(check bool) "has upward jumps" true (!rises > 0);
  Alcotest.(check bool) "has decreasing stretches" true (!falls > !rises)

let test_fig6_includes_fig5_series () =
  Alcotest.(check int) "eight curves + envelope" 9 (List.length fig6.E.series)

(* ---------------- batch-built values ---------------- *)

let bits = Int64.bits_of_float

let check_bits what expected actual =
  if bits expected <> bits actual then
    Alcotest.failf "%s: closed form %h, batch %h" what expected actual

(* every value read out of a figure's columnar batch is, in bits, the
   closed form at its own (n, r): a transpose that reads a neighbour's
   slot fails here *)
let test_series_bits () =
  let p = Zeroconf.Params.figure2 in
  List.iter
    (fun (fig, label, closed_form) ->
      for n = 1 to 8 do
        Array.iter
          (fun (r, v) ->
            check_bits (Printf.sprintf "%s n = %d, r = %h" fig.E.id n r)
              (closed_form p ~n ~r) v)
          (series fig (label n)).E.points
      done)
    [ (fig2, Printf.sprintf "C_%d", Zeroconf.Cost.mean);
      (fig5, Printf.sprintf "E(%d, r)", Zeroconf.Reliability.log10_error_probability) ]

let test_landscape_bits () =
  let l = E.cost_landscape () in
  Array.iteri
    (fun i n ->
      Array.iteri
        (fun j r ->
          check_bits (Printf.sprintf "landscape n = %d, r = %h" n r)
            (log10 (Zeroconf.Cost.mean Zeroconf.Params.figure2 ~n ~r))
            l.E.log10_cost.(i).(j))
        l.E.rs)
    l.E.ns

(* ---------------- Sec. 4.4 / 4.5 / 6 anchors ---------------- *)

let test_sec44_nu_is_three () =
  Alcotest.(check int) "nu = 3" 3 (E.section_44_nu ())

let test_sec6_matches_paper () =
  let a = E.section_6 () in
  Alcotest.(check int) "optimal n = 2" 2 a.Zeroconf.Assessment.optimum.Zeroconf.Optimize.n;
  check_close ~tol:5e-3 "optimal r ~ 1.75" 1.7484
    a.Zeroconf.Assessment.optimum.Zeroconf.Optimize.r;
  let err = a.Zeroconf.Assessment.optimum.Zeroconf.Optimize.error_prob in
  Alcotest.(check bool)
    (Printf.sprintf "error %.3g ~ 4e-22" err)
    true
    (err > 3.5e-22 && err < 4.5e-22);
  Alcotest.(check bool) "half the configuration time" true
    (a.Zeroconf.Assessment.optimal_config_time < 0.5 *. a.Zeroconf.Assessment.draft_config_time)

(* ---------------- validation experiment (V1) ---------------- *)

(* At V1's fixed trials and seed, every Monte-Carlo interval holds
   both the closed form and the matrix solve, with no slack: a drift of
   either exact route out of the F_X sampler's interval fails here. *)
let test_validation_three_way_agreement () =
  let reports = E.validation () in
  Alcotest.(check int) "cost and error at five points" 10 (List.length reports);
  List.iter
    (fun (rep : Engine.Crosscheck.report) ->
      let q = rep.Engine.Crosscheck.query in
      let label = Format.asprintf "%a" Engine.Query.pp q in
      let answer backend =
        match
          List.find_opt
            (fun (a : Engine.Answer.t) -> a.Engine.Answer.backend = backend)
            rep.Engine.Crosscheck.answers
        with
        | Some a -> a
        | None -> Alcotest.failf "%s: no %s answer" label backend
      in
      let analytic = Engine.Answer.scalar (answer "analytic") 0
      and matrix = Engine.Answer.scalar (answer "dtmc") 0 in
      (match Engine.Answer.ci (answer "mc") 0 with
      | None -> Alcotest.failf "%s: no Monte-Carlo interval" label
      | Some (lo, hi) ->
          List.iter
            (fun (route, x) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: MC [%g, %g] covers %s %.17g" label lo hi
                   route x)
                true
                (lo <= x && x <= hi))
            [ ("analytic", analytic); ("dtmc", matrix) ]);
      Alcotest.(check (option bool)) (label ^ ": covered") (Some true)
        rep.Engine.Crosscheck.mc_covered;
      check_close ~tol:1e-8 (label ^ ": closed form = matrix") analytic matrix)
    reports

(* V1 is how [reproduce], which has no --jobs, reaches the Monte-Carlo
   route: the library reads no environment, so a malformed
   ZEROCONF_JOBS changes nothing there.  This executable sets no job
   count, so both runs are at the default. *)
let test_validation_ignores_jobs_env () =
  let values reports =
    List.map
      (fun (rep : Engine.Crosscheck.report) ->
        List.map
          (fun (a : Engine.Answer.t) -> (a.Engine.Answer.backend, a.Engine.Answer.values))
          rep.Engine.Crosscheck.answers)
      reports
  in
  let reference = values (E.validation ()) in
  Unix.putenv "ZEROCONF_JOBS" "abc";
  Alcotest.(check bool) "same values with ZEROCONF_JOBS=abc" true
    (compare reference (values (E.validation ())) = 0)

let test_all_figures_enumerates_five () =
  Alcotest.(check (list string)) "ids"
    [ "fig2"; "fig3"; "fig4"; "fig5"; "fig6" ]
    (List.map (fun (f : E.figure) -> f.E.id) figures)

(* the extension figures, as [figures] renders them *)
let extension id =
  List.find (fun (f : E.figure) -> f.E.id = id) (E.extension_figures ())

let test_latency_figure_shape () =
  let fig = extension "ext-latency" in
  Alcotest.(check int) "three designs" 3 (List.length fig.E.series);
  List.iter
    (fun (s : E.series) ->
      (* each CDF is monotone from ~0 to ~1 *)
      let values = ys s in
      let n = Array.length values in
      let monotone = ref true in
      for i = 1 to n - 1 do
        if values.(i) < values.(i - 1) -. 1e-12 then monotone := false
      done;
      Alcotest.(check bool) (s.E.label ^ " monotone") true !monotone;
      Alcotest.(check bool) (s.E.label ^ " reaches ~1") true (values.(n - 1) > 0.99))
    fig.E.series;
  (* the draft starts later than the fast design: at 4 s the fast
     design is mostly done, the draft has not finished a single run *)
  let at s t =
    let _, v =
      Array.to_list (series fig s).E.points
      |> List.find (fun (x, _) -> x >= t)
    in
    v
  in
  Alcotest.(check (float 1e-9)) "draft has nothing by 4 s" 0. (at "draft (4, 2)" 4.)

let test_pareto_figure_shape () =
  let fig = extension "ext-pareto" in
  match fig.E.series with
  | [ front ] ->
      let points = front.E.points in
      Alcotest.(check bool) "non-trivial front" true (Array.length points > 20);
      (* sorted by cost, strictly improving reliability *)
      for i = 1 to Array.length points - 1 do
        let c0, e0 = points.(i - 1) and c1, e1 = points.(i) in
        Alcotest.(check bool) "cost ascending" true (c1 >= c0);
        Alcotest.(check bool) "error descending" true (e1 < e0)
      done
  | _ -> Alcotest.fail "expected a single series"

let () =
  Alcotest.run "experiments"
    [ ( "figure 2",
        [ Alcotest.test_case "eight curves" `Quick test_fig2_has_eight_cost_curves;
          Alcotest.test_case "n=1,2 invisible; C_3 best" `Quick
            test_fig2_n12_invisible_n3_smallest;
          Alcotest.test_case "dip then rise" `Quick test_fig2_curves_dip_then_rise ] );
      ( "figure 3",
        [ Alcotest.test_case "decreasing integer steps" `Quick
            test_fig3_step_function_decreasing;
          Alcotest.test_case "respects nu" `Quick test_fig3_never_below_nu ] );
      ( "figure 4",
        [ Alcotest.test_case "lower envelope" `Quick test_fig4_envelope_below_each_curve ] );
      ( "figures 5-6",
        [ Alcotest.test_case "monotone in n" `Quick test_fig5_ordering_in_n;
          Alcotest.test_case "sawtooth in band" `Quick
            test_fig6_envelope_sawtooth_and_bounds;
          Alcotest.test_case "fig6 contains fig5" `Quick test_fig6_includes_fig5_series ] );
      ( "batch values",
        [ Alcotest.test_case "series = closed forms, bitwise" `Quick
            test_series_bits;
          Alcotest.test_case "landscape = closed form, bitwise" `Quick
            test_landscape_bits ] );
      ( "section anchors",
        [ Alcotest.test_case "Sec. 4.4: nu = 3" `Quick test_sec44_nu_is_three;
          Alcotest.test_case "Sec. 6 headline" `Quick test_sec6_matches_paper ] );
      ( "validation",
        [ Alcotest.test_case "three-way agreement" `Slow
            test_validation_three_way_agreement;
          Alcotest.test_case "ZEROCONF_JOBS not read" `Slow
            test_validation_ignores_jobs_env;
          Alcotest.test_case "figure inventory" `Quick test_all_figures_enumerates_five ] );
      ( "extension figures",
        [ Alcotest.test_case "latency CDFs" `Quick test_latency_figure_shape;
          Alcotest.test_case "pareto front" `Quick test_pareto_figure_shape ] ) ]
