(** Per-trial outcomes of a configuration attempt, a run's trials as
    columns, and their statistics. *)

type sample = private {
  cost : float array;
  config_time : float array;
  address : int array;
  collided : bool array;
  probes_sent : int array;
  restarts : int array;
}
(** One run's trials, column by column: trial [i]'s outcome is slot [i]
    of every column, and every column has one slot per trial.  The two
    float columns are flat float arrays and the others hold immediates,
    so a runner fills a trial's slots without allocating, and a
    statistic reads one column straight through.  The type is private:
    a sample comes from {!create} and is filled by the runners of
    {!Scenario}, which write the columns in place. *)

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

val store : sample -> int -> outcome -> unit
(** [store s i o] writes [o] into slot [i]. *)

val outcome : sample -> int -> outcome
(** [outcome s i] is trial [i] as a record (allocates one; for tests,
    examples and printing, not for reductions). *)

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
    [cost] or [config_time], or a count of [collided]), and each equals
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
    compensated sums of the count columns over [trials]. *)

val pp_aggregate : Format.formatter -> aggregate -> unit
