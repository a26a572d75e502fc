(** First-class evaluation requests.

    A query names {e what} to compute (a paper quantity), {e where}
    (a scenario and a point or sweep over the protocol parameters
    [(n, r)]) and {e how well} (an accuracy demand) — but not {e how}:
    picking the evaluation route (closed form, streaming kernel, DTMC
    matrix solve, or Monte Carlo) is the {!Planner}'s job.  This is the
    single interface all four routes sit behind, so cross-route
    agreement checks ({!Crosscheck}) and future caching/sharding layers
    see one request type instead of four hand-wired call graphs. *)

type quantity =
  | Mean_cost          (** Eq. 3's [C(n, r)]. *)
  | Error_probability  (** Eq. 4's [E(n, r)]. *)
  | Log10_error        (** [log10 E(n, r)], stable far below float
                           underflow of [E] itself. *)
  | Cost_variance      (** Variance of the accumulated cost — DRM-only
                           (the paper's closed forms give the mean). *)
  | Latency_mean       (** Mean configuration time in seconds. *)

type domain =
  | Point of { n : int; r : float }
  | N_sweep of { ns : int array; r : float }
      (** One value per probe count at a fixed listening period. *)
  | R_sweep of { n : int; rs : float array }
      (** One value per listening period at a fixed probe count. *)

type accuracy =
  | Exact
      (** Full float precision: only the deterministic routes qualify. *)
  | Sampled of { trials : int; seed : int }
      (** Statistical estimate with a confidence interval — routes the
          query to Monte Carlo. *)

type t = {
  quantity : quantity;
  scenario : Zeroconf.Params.t;
  domain : domain;
  accuracy : accuracy;
}

val point : ?accuracy:accuracy -> quantity -> Zeroconf.Params.t -> n:int -> r:float -> t
(** Point query; [accuracy] defaults to {!Exact}. *)

val n_sweep :
  ?accuracy:accuracy -> quantity -> Zeroconf.Params.t -> ns:int array -> r:float -> t

val r_sweep :
  ?accuracy:accuracy -> quantity -> Zeroconf.Params.t -> n:int -> rs:float array -> t

val max_points : int
(** The most points one query may hold: [1_048_576], 256 times the
    largest sweep the library runs itself ([Optimize]'s [n_max = 4096]).
    Front ends check a requested sweep size, and a probe count, against
    it before they allocate the sweep's grid. *)

val max_trials : int
(** The most Monte-Carlo trials one sampling stream may run: [2^24]
    ([16_777_216]).  A run keeps one {!Netsim.Metrics.sample} slot per
    trial, 16 bytes, so this bounds a stream's columns at about
    0.27 GB.  Front ends check a requested trial count against it before
    anything is sampled. *)

val validate : t -> unit
(** Raises [Invalid_argument] unless every probe count is between 1
    and {!max_points} (one point at [n] costs [n] kernel steps, as many
    as the largest sweep allowed), every listening period is
    non-negative and finite ([r = 0] is the paper's boundary case,
    where [C_n(0) = n c + q E]), sweeps are non-empty and hold at most
    {!max_points} points, [Sampled] demands between 1 and
    {!max_trials} trials, and every sample the quantity averages is
    finite at every point: for [Mean_cost] and [Cost_variance] the
    largest cost of one attempt, [n (r + c) + E], and for
    [Latency_mean] the time [k r] of every period count [k] up to
    {!Zeroconf.Latency.default_horizon} (where these overflow, a mean
    or variance comes out as [inf - inf] or [inf * 0]).  The smart
    constructors above call this. *)

val validate_runs :
  quantity ->
  Zeroconf.Params.t ->
  sampled:bool ->
  trials:int ->
  n_lo:int array ->
  off:int array ->
  r:float array ->
  lo:int ->
  hi:int ->
  unit
(** {!validate} on the runs [lo <= t < hi] of a domain held in runs:
    run [t] holds the points [(n_lo.(t) + i, r.(t))] for
    [0 <= i < off.(t + 1) - off.(t)] ([trials] read when [sampled]).
    A run is walked point by point only where a check fails at its
    ends; nothing is allocated unless a check fails. *)

val check_latency_horizon : n:int -> r:float -> unit
(** The mean-latency check of {!validate} at one point: raises
    [Invalid_argument] with its message where the configuration time at
    the horizon, {!Zeroconf.Latency.default_horizon} [*. r], is not
    finite, since {!Zeroconf.Latency.mean} would come out as [nan]
    there.  The [latency] command checks its point with it too. *)

val size : t -> int
(** Number of evaluation points in the domain. *)

val points : t -> (int * float) array
(** The domain flattened to [(n, r)] pairs, in sweep order. *)

val quantity_name : quantity -> string
(** Stable lower-case identifier ([mean-cost], [error-probability],
    [log10-error], [cost-variance], [latency-mean]). *)

val quantity_of_name : string -> quantity option

val pp : Format.formatter -> t -> unit
