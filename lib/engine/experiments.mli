(** Programmatic definitions of every evaluation artifact in the paper
    (Figures 2–6, the Sec. 4.4 threshold, the Sec. 4.5 calibration, the
    Sec. 6 assessment) plus this reproduction's own validation
    experiment.  The CLI, the figure generator and the bench harness
    all consume these definitions, so "what Figure 4 is" lives in
    exactly one place.  The cost/error sweeps and the landscape are
    each one columnar engine batch ({!Executor.n_sweeps}), routed as
    ad-hoc queries are, with values bit-identical to the closed forms
    at every [(n, r)]. *)

open Zeroconf

type series = { label : string; points : (float * float) array }

type figure = {
  id : string;          (** e.g. ["fig2"]. *)
  title : string;
  x_label : string;
  y_label : string;
  log_y : bool;
  y_min : float option; (** Display clip, mirroring the paper's axes. *)
  y_max : float option;
  series : series list;
}

val all_figures : unit -> figure list
(** Figures 2–6, in order: the cost functions [C_1 .. C_8] against [r]
    at 400 points of [\[0.01, 4\]] (clipped like the paper's plot,
    which hides the astronomically expensive [C_1], [C_2]); the step
    function [N(r)] and the lower envelope [C_min(r)] from one
    600-point optimizer sweep of [\[0.02, 6\]]; [log10 E(n, r)] for
    [n = 1 .. 8] at 400 points of that range; and those curves with the
    sawtoothed [E(N(r), r)] overlaid. *)

type landscape = {
  ns : int array;               (** Row labels: probe counts. *)
  rs : float array;             (** Column labels: listening periods. *)
  log10_cost : float array array;  (** [log10 C(n, r)] per (row, col). *)
}

val cost_landscape : unit -> landscape
(** The [(n, r)] cost surface behind the figure generator's heatmap
    ([n = 1..10], 24 points of [r] in [0.25, 6]), evaluated as one
    engine batch of n-sweeps, one per [r]. *)

val extension_figures : unit -> figure list

val section_44_nu : unit -> int
(** [nu] for the Figure-2 scenario; the paper derives [3]. *)

type calibration_row = {
  label : string;
  target_n : int;
  target_r : float;
  paper_error_cost : float;
  paper_probe_cost : float;
  derived : Calibrate.result;
}

val section_45 : unit -> calibration_row list
(** Both Sec. 4.5 calibrations with the paper's reported values
    alongside ours. *)

val section_6 : unit -> Assessment.t
(** The realistic-ethernet assessment; the paper reports optimum
    [n = 2, r ~= 1.75] with error probability [~4e-22]. *)

val validation : unit -> Crosscheck.report list
(** V1, the three-way agreement check: {!Crosscheck.run} at 10_000
    trials and seed 42 on a Monte-Carlo-friendly scenario (moderate
    [E] and loss, so all three routes resolve the same digits).  Two
    reports per [(n, r)] point, mean cost then error probability, each
    with the analytic (Eqs. 3/4), kernel, dtmc (DRM matrix solve) and
    mc (the operational F_X sampler) answers. *)
