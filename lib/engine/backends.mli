(** The four evaluation routes, each behind the {!Backend.S} contract.

    {ul
    {- {!Analytic} — the paper's closed forms point by point:
       [Cost.mean] (Eq. 3), [Reliability] (Eq. 4 and its log10), both
       one-shot {!Zeroconf.Kernel} reads, and [Latency] (mean
       configuration time).  Exact; no variance route.}
    {- {!Kernel} — streaming n-scan cursors ({!Zeroconf.Kernel}): the
       same three quantities bit-identical to the closed forms, O(1)
       amortized per probe count.  The cheapest route for points and
       sweeps.}
    {- {!Dtmc} — builds the Sec. 4.1 DRM ({!Zeroconf.Drm}) and solves
       [(I - Q)^-1] per point: the independent linear-algebra route,
       and the only one for the cost variance.  Refuses probe counts
       beyond an internal cap (the solve is cubic in [n]).}
    {- {!Mc} — the Netsim Monte-Carlo route: samples reply delays from
       the scenario's [F_X] under the DRM's period-boundary semantics
       and reports 95% confidence intervals.  Only answers [Sampled]
       queries; occupancy is [round (q * 65024)] hosts so [q] matches
       {!Zeroconf.Params.q_of_hosts}.}}

    Each route's one evaluation is [eval_columns], on the plans of a
    {!Batch.t} routed to it.  All four group their work with one
    open-addressing table over int items.  The kernel groups its runs,
    as (plan, run) items, into [(scenario id, bits of r)] columns, and
    scans each column with the one cursor of its (scenario, log twin),
    reset to the column's [r], writing straight into the batch's value
    array.  The other three group their points and fan one unit of work
    per group out in one map: the DTMC route builds each distinct
    [(scenario, n, bits of r)] matrix once, Monte Carlo runs each
    sampling stream (scenario, n, r, trials, seed and the point's index
    in its plan) once, however many quantities read it, and the
    analytic route keys each point by itself, so every point is its
    own unit of work.  [eval_batch] is an adapter over
    [eval_columns].  Batched values are bitwise identical to scalar
    evaluation. *)

module Analytic : Backend.S
module Kernel : Backend.S
module Dtmc : Backend.S
module Mc : Backend.S
