open Zeroconf

type series = { label : string; points : (float * float) array }

type figure = {
  id : string;
  title : string;
  x_label : string;
  y_label : string;
  log_y : bool;
  y_min : float option;
  y_max : float option;
  series : series list;
}

let r_grid ~points ~lo ~hi = Numerics.Grid.linspace lo hi points

(* Every figure below is a sweep of independent per-point evaluations.
   The cost/error series and the landscape are ONE columnar batch per
   figure ({!Executor.n_sweeps}): one plan per grid r holding the n-sweep
   1 .. n_max, so the kernel backend streams a single cursor per r
   serving every n at once, and the values transpose out of the batch's
   value array; outputs stay bit-identical.  The optimizer sweeps
   (figures 3, 4 and the fig. 6 envelope) stay on Optimize's
   kernel-backed n-scans.  All of it runs serially: a point costs
   microseconds, less than handing it to another domain. *)
let series_batch quantity p ~label grid ~n_max =
  let v = Executor.n_sweeps [| quantity |] p ~lo:1 ~hi:n_max grid in
  List.init n_max (fun i ->
      { label = label (i + 1);
        points = Array.mapi (fun j r -> (r, v.((j * n_max) + i))) grid })

let figure2 () =
  let grid = r_grid ~points:400 ~lo:0.01 ~hi:4. in
  { id = "fig2";
    title = "Cost functions C_1 ... C_8";
    x_label = "r (s)";
    y_label = "mean total cost C_n(r)";
    log_y = false;
    y_min = Some 0.;
    (* the paper's frame cuts off the astronomical n = 1, 2 curves *)
    y_max = Some 100.;
    series =
      series_batch Query.Mean_cost Params.figure2
        ~label:(Printf.sprintf "C_%d")
        grid ~n_max:8 }

(* figures 3 to 6 share their r-range; 3 and 4 are two views of one
   optimizer sweep, and 6 is 5 with one curve more, so [all_figures]
   computes each of those once *)
let optimum_grid points = r_grid ~points ~lo:0.02 ~hi:6.

let figure3_of sweep =
  { id = "fig3";
    title = "N(r): optimal number of probes for given r";
    x_label = "r (s)";
    y_label = "N(r)";
    log_y = false;
    y_min = Some 0.;
    y_max = None;
    series =
      [ { label = "N(r)";
          points = Array.map (fun (r, (n, _)) -> (r, float_of_int n)) sweep } ] }

let figure4_of sweep =
  { id = "fig4";
    title = "Minimal-cost function C_min(r)";
    x_label = "r (s)";
    y_label = "C_min(r)";
    log_y = false;
    y_min = Some 0.;
    y_max = Some 100.;
    series =
      [ { label = "C_min";
          points = Array.map (fun (r, (_, cost)) -> (r, cost)) sweep } ] }

let figure5 () =
  { id = "fig5";
    title = "Probability to reach state error";
    x_label = "r (s)";
    y_label = "log10 E(n, r)";
    log_y = false (* ordinate is already log10 *);
    y_min = Some (-60.);
    y_max = Some 0.;
    series =
      series_batch Query.Log10_error Params.figure2
        ~label:(Printf.sprintf "E(%d, r)")
        (optimum_grid 400) ~n_max:8 }

(* figure 6 from the figure 5 it overlays *)
let figure6_of fig5 =
  let envelope =
    { label = "E(N(r), r)";
      points =
        Numerics.Grid.map_sweep
          (fun r -> Optimize.log10_error_under_optimal_n Params.figure2 ~r)
          (optimum_grid 400) }
  in
  { fig5 with
    id = "fig6";
    title = "Error probability under cost-optimal n";
    series = fig5.series @ [ envelope ] }

let all_figures () =
  let sweep = Optimize.optimal_n_sweep Params.figure2 (optimum_grid 600)
  and fig5 = figure5 () in
  [ figure2 (); figure3_of sweep; figure4_of sweep; fig5; figure6_of fig5 ]

type landscape = {
  ns : int array;
  rs : float array;
  log10_cost : float array array;
}

let cost_landscape () =
  let n_max = 10 in
  let ns = Array.init n_max (fun i -> i + 1) in
  let rs = r_grid ~points:24 ~lo:0.25 ~hi:6. in
  let v =
    Executor.n_sweeps [| Query.Mean_cost |] Params.figure2 ~lo:1 ~hi:n_max rs
  in
  { ns;
    rs;
    log10_cost =
      Array.init n_max (fun i ->
          Array.init (Array.length rs) (fun j -> log10 v.((j * n_max) + i))) }

let latency_figure () =
  let p = Params.figure2 in
  let opt = Optimize.global_optimum p in
  let r8 = (Optimize.optimal_r p ~n:8).Numerics.Minimize.x in
  let designs =
    [ (4, 2., "draft (4, 2)");
      (opt.Optimize.n, opt.Optimize.r,
       Printf.sprintf "optimal (%d, %.2f)" opt.Optimize.n opt.Optimize.r);
      (8, r8, Printf.sprintf "fast (8, %.2f)" r8) ]
  in
  let grid = Numerics.Grid.linspace 0. 15. 301 in
  let series =
    List.map
      (fun (n, r, label) ->
        let dist = Latency.periods p ~n ~r in
        { label; points = Array.map (fun t -> (t, Latency.cdf dist t)) grid })
      designs
  in
  { id = "ext-latency";
    title = "Configuration-time CDFs";
    x_label = "seconds";
    y_label = "P(configured by t)";
    log_y = false;
    y_min = Some 0.;
    y_max = Some 1.02;
    series }

let pareto_figure () =
  let front = Tradeoff.front ~n_max:10 ~r_points:150 ~r_max:6. Params.figure2 in
  let points =
    Array.of_list
      (List.map (fun (d : Tradeoff.design) -> (d.Tradeoff.cost, d.Tradeoff.log10_error)) front)
  in
  { id = "ext-pareto";
    title = "Cost/reliability Pareto front";
    x_label = "mean total cost";
    y_label = "log10 error probability";
    log_y = false;
    y_min = None;
    y_max = None;
    series = [ { label = "front"; points } ] }

let extension_figures () = [ latency_figure (); pareto_figure () ]

let section_44_nu () = Optimize.min_useful_probes Params.figure2

type calibration_row = {
  label : string;
  target_n : int;
  target_r : float;
  paper_error_cost : float;
  paper_probe_cost : float;
  derived : Calibrate.result;
}

let section_45 () =
  let wireless =
    (* Sec. 4.5 network assumptions for r = 2, costs to be derived *)
    Params.v ~name:"sec45-wireless"
      ~delay:(Dist.Families.shifted_exponential ~mass:(1. -. 1e-5) ~rate:10. ~delay:1. ())
      ~q:(Params.q_of_hosts 1000) ~probe_cost:0. ~error_cost:0.
  in
  let wired =
    Params.v ~name:"sec45-wired"
      ~delay:(Dist.Families.shifted_exponential ~mass:(1. -. 1e-10) ~rate:100. ~delay:0.1 ())
      ~q:(Params.q_of_hosts 1000) ~probe_cost:0. ~error_cost:0.
  in
  [ { label = "r = 2 (unreliable/wireless)";
      target_n = 4;
      target_r = 2.;
      paper_error_cost = 5e20;
      paper_probe_cost = 3.5;
      derived = Calibrate.run wireless ~n:4 ~r:2. };
    { label = "r = 0.2 (reliable/wired)";
      target_n = 4;
      target_r = 0.2;
      paper_error_cost = 1e35;
      paper_probe_cost = 0.5;
      derived = Calibrate.run wired ~n:4 ~r:0.2 } ]

let section_6 () = Assessment.run Params.realistic_ethernet

let validation () =
  (* Monte-Carlo-friendly scenario: frequent collisions, lossy probes,
     moderate error cost, so the F_X sampler resolves both outputs. *)
  let p =
    Params.v ~name:"validation"
      ~delay:(Dist.Families.shifted_exponential ~mass:0.9 ~rate:2. ~delay:0.5 ())
      ~q:0.3 ~probe_cost:1. ~error_cost:100.
  in
  Crosscheck.run ~trials:10_000 ~seed:42
    (List.concat_map
       (fun (n, r) ->
         [ Query.point Query.Mean_cost p ~n ~r;
           Query.point Query.Error_probability p ~n ~r ])
       [ (1, 0.8); (2, 0.8); (3, 0.6); (3, 1.5); (4, 1.) ])
