(** Trial runners: repeat configuration attempts and collect outcomes.

    Both runners return one {!Metrics.sample}: trial [i] (in run order,
    each drawing from [rng] after trial [i - 1]) fills slot [i] of the
    cost and time columns and adds its counts to the run's totals.  The
    aggregate runner writes them in its trial loop, so no per-trial
    record exists; the packet-level runner stores each newcomer's
    finished {!Metrics.outcome}.

    Two fidelity levels:

    - {!run_aggregate} samples reply round-trips directly from the
      paper's [F_X] (no packet-level machinery) with the DRM's
      period-boundary semantics — the sharpest Monte-Carlo check of
      Eqs. 3 and 4, because it samples {e delays}, not the chain's
      already-derived probabilities.
    - {!run_detailed} runs the full packet-level simulation: broadcast
      link with per-receiver loss, ARP responder hosts with processing
      delays, and the newcomer state machine. *)

val run_aggregate :
  delay:Dist.Distribution.t -> occupied:int -> ?pool_size:int ->
  config:Newcomer.config -> trials:int -> rng:Numerics.Rng.t -> unit ->
  Metrics.sample
(** Occupancy is [occupied / pool_size] (defaults to the real 65024
    space), so [q] matches {!Zeroconf.Params.q_of_hosts}.

    No pool is built: each trial reveals occupancy lazily, one candidate
    at a time.  After [seen] distinct candidates, [k] of them occupied,
    a fresh candidate is occupied iff
    [Rng.int rng (pool_size - seen) < occupied - k] — an exact integer
    Bernoulli with probability [(occupied - k) / (pool_size - seen)],
    which is the conditional law of the next address of a uniformly
    random [occupied]-subset given what was revealed.  The revealed
    answers therefore have the same joint law as filling a pool with
    [occupied] uniform hosts up front, while a trial costs
    O(attempts) instead of O(occupied).  A candidate drawn again (a
    restart or an [avoid_failed] redraw) reuses its stored answer.

    Beyond the sample's columns and one small buffer per run, a trial
    allocates only the reply-delay draws of its occupied candidates.

    Raises [Invalid_argument] when [trials < 1], [pool_size < 1] or
    [occupied] is outside [\[0, pool_size)]. *)

val run_detailed :
  loss:float -> one_way:Dist.Distribution.t ->
  processing:Dist.Distribution.t -> occupied:int -> pool_size:int ->
  config:Newcomer.config -> trials:int ->
  rng:Numerics.Rng.t -> unit -> Metrics.sample
(** Each trial builds a fresh {!Network} of [occupied] configured
    hosts in a pool of [pool_size] addresses, each replying after one
    [processing] draw, plus one newcomer, and runs it to completion.
    Raises
    [Invalid_argument] when [trials < 1] or [occupied] is outside
    [\[0, pool_size)]. *)
