(** The distribution of the configuration time — not just its mean.

    The paper motivates the whole study with user-perceived latency ("a
    configuration time of 8 seconds may seem barely acceptable"), but
    Eq. 3 only delivers an expectation.  Under the DRM's semantics the
    total configuration time is [r] times the number of listening
    periods spent, and the period count has an exactly computable
    distribution: dynamic programming over (DRM state, periods elapsed),
    where each hop into a probe state consumes one period, the
    [start -> ok] hop consumes [n], and aborts are instantaneous.

    This yields tail probabilities ("what fraction of users wait longer
    than 8 s?") and quantiles for any [(n, r)], and a third consistency
    anchor: the distribution's mean must equal the expected-reward solve
    of the DRM with time rewards. *)

type t = {
  n : int;
  r : float;
  pmf : float array;
      (** [pmf.(t)] is the probability of finishing in exactly [t]
          listening periods; index 0 unused except for degenerate
          cases. *)
  tail : float;
      (** Mass beyond the horizon (not captured in [pmf]). *)
}

val default_horizon : int
(** [4096] periods: {!periods}' horizon. *)

val periods : Params.t -> n:int -> r:float -> t
(** Distribution of the period count over the first {!default_horizon}
    periods, which leaves negligible tail for any realistic scenario.
    Raises [Invalid_argument] when [n] exceeds the horizon. *)

val cdf : t -> float -> float
(** [cdf dist seconds]: probability the host is configured within
    [seconds]. *)

val quantile : t -> float -> float
(** [quantile dist p]: smallest time (seconds) by which a fraction [p]
    of configurations complete.  Raises [Invalid_argument] when [p]
    exceeds the captured mass. *)

val mean : t -> float
(** Mean configuration time in seconds (of the captured mass). *)

val exceeds : t -> float -> float
(** [exceeds dist seconds = 1 - cdf dist seconds], including the
    uncaptured tail. *)
