(** The cost/reliability Pareto front.

    The paper's central qualitative claim: "minimal cost and maximal
    reliability are qualities that cannot be achieved at the same time"
    (and Figures 4 vs 6: the minima of one are not the minima of the
    other).  This module makes the claim quantitative by enumerating
    [(n, r)] designs and extracting the Pareto-optimal set over
    (mean cost, error probability).  The design grid is evaluated
    as one columnar engine batch ({!Executor.n_sweeps}): a cost and an
    error n-sweep per [r], sharing a kernel cursor. *)

open Zeroconf

type design = {
  n : int;
  r : float;
  cost : float;
  log10_error : float;
      (** Error probability in log10, the scale on which the paper
          plots it. *)
}

val front :
  ?n_max:int -> ?r_points:int -> ?r_max:float -> Params.t -> design list
(** The designs of [enumerate p] not dominated by any other (lower cost
    {e and} lower error), sorted by increasing cost (hence decreasing
    reliability). *)

val knee : design list -> design option
(** The "knee" of a front sorted by cost: the design maximizing the
    distance to the segment between the front's endpoints, after
    normalizing both axes to [0, 1] — a standard heuristic for the
    best compromise.  [None] on fronts with fewer than three points. *)
