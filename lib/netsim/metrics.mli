(** Per-trial outcomes of a configuration attempt, a run's trials, and
    their statistics. *)

type sample = private {
  cost : float array;
  config_time : float array;
  mutable collisions : int;
  sums : float array;
}
(** One run's trials.  Per trial it keeps only the two values whose
    variance is summarized, in two passes that re-read every value:
    trial [i]'s cost and time are slot [i] of the flat float arrays
    [cost] and [config_time].  The counts are totals: [collisions], and
    in [sums] Neumaier (sum, compensation) pairs, probes at 0, 1 and
    restarts at 2, 3, that take, trial by trial, the steps of
    [Safe_float.sum_by float_of_int] over a count column, so
    {!aggregate} reads that column's bits.  A trial allocates nothing.
    The type is private: the runners of {!Scenario} fill a {!create}d
    sample's trials in order, each once, by {!tally} or {!store}. *)

type outcome = {
  address : int;        (** Finally accepted address. *)
  collided : bool;      (** True when the accepted address was in use. *)
  probes_sent : int;    (** Total ARP probes across all attempts. *)
  restarts : int;       (** Number of addresses abandoned after a reply. *)
  config_time : float;  (** Virtual seconds from power-on to acceptance. *)
  cost : float;         (** Accumulated abstract cost (paper's metric). *)
}

val create : int -> sample
(** [create trials] has [trials] slots, the float columns not yet
    initialised.  Raises [Invalid_argument] when [trials < 1]. *)

val length : sample -> int
(** The number of trials. *)

val tally : sample -> collided:bool -> probes:int -> restarts:int -> unit
(** Adds a trial's counts to the totals. *)

val store : sample -> int -> outcome -> unit
(** [store s i o] writes [o]'s cost and time into slot [i] and tallies
    its counts; its address is not kept. *)

type interval = { mean : float; ci_lo : float; ci_hi : float }
(** A sample estimate and its 95% confidence interval. *)

type aggregate = {
  trials : int;
  collisions : int;
  collision_rate : float;
  collision_ci : float * float;  (** Wilson 95% interval. *)
  cost : Numerics.Stats.summary;
  cost_ci : float * float;
  config_time : Numerics.Stats.summary;
  mean_probes : float;
  mean_restarts : float;
}

(** {1 One statistic at a time}

    Each reads its own column in place ({!Numerics.Stats.summarize} of
    [cost] or [config_time]) or the collision total, and each equals
    the matching {!aggregate} fields bit for bit. *)

val cost_interval : sample -> interval
(** Mean cost with its normal-approximation interval: [cost]'s mean
    and [cost_ci]. *)

val collision_interval : sample -> interval
(** Collision rate with its Wilson interval: [collision_rate] and
    [collision_ci]. *)

val config_time_interval : sample -> interval
(** Mean configuration time with its normal-approximation interval:
    [config_time]'s mean and {!Numerics.Stats.summary_ci} of it. *)

val aggregate : sample -> aggregate
(** Every statistic at once.  [mean_probes] and [mean_restarts] are
    the compensated sums of the counts over [trials]. *)

val pp_aggregate : Format.formatter -> aggregate -> unit
