(** Per-trial outcomes of a configuration attempt and their
    aggregation. *)

type outcome = {
  address : int;        (** Finally accepted address. *)
  collided : bool;      (** True when the accepted address was in use. *)
  probes_sent : int;    (** Total ARP probes across all attempts. *)
  restarts : int;       (** Number of addresses abandoned after a reply. *)
  config_time : float;  (** Virtual seconds from power-on to acceptance. *)
  cost : float;         (** Accumulated abstract cost (paper's metric). *)
}

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

    Each reads its fields straight from the outcomes
    ({!Numerics.Stats.summarize_by}), without copying them into a
    float array, and each equals the matching {!aggregate} fields bit
    for bit.  All raise [Invalid_argument] on an empty array. *)

val cost_interval : outcome array -> interval
(** Mean cost with its normal-approximation interval: [cost]'s mean
    and [cost_ci]. *)

val collision_interval : outcome array -> interval
(** Collision rate with its Wilson interval: [collision_rate] and
    [collision_ci]. *)

val config_time_interval : outcome array -> interval
(** Mean configuration time with its normal-approximation interval:
    [config_time]'s mean and {!Numerics.Stats.summary_ci} of it. *)

val aggregate : outcome array -> aggregate
(** Every statistic at once.  Raises [Invalid_argument] on an empty
    array. *)

val pp_aggregate : Format.formatter -> aggregate -> unit
