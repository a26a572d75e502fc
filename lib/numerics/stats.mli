(** Descriptive statistics and interval estimates for the Monte-Carlo
    side of the reproduction (simulation vs analytic model). *)

type summary = {
  n : int;
  mean : float;
  variance : float;
      (** Unbiased (n-1) sample variance; [0.] if n < 2; [infinity]
          when it overflows a double. *)
  std : float;
      (** Its square root, finite even when [variance] overflows. *)
  min : float;
  max : float;
}

val summarize : float array -> summary
(** One pass for the mean (a {!Safe_float.sum}), one for the variance
    (the same compensated sum over [(x -. mean) ** 2.]) and one for
    [min]/[max]; nothing is allocated but the result.  Only when that
    sum of squares is not finite (deviations past about [1e154]) are the
    deviations summed again, each divided by the largest, so [std] stays
    finite; every other sample keeps the plain sum's bits.  Raises
    [Invalid_argument] on an empty array. *)

val summary_ci : summary -> float * float
(** Normal-approximation 95% confidence interval for the mean of a
    summarized sample.  Returns
    [(lo, hi)]; [(mean, mean)] when [n < 2]. *)

val proportion_ci : successes:int -> int -> float * float
(** 95% Wilson score interval for a binomial proportion — well-behaved even
    when [successes] is 0, which matters for rare collision events. *)

val quantile : float array -> float -> float
(** [quantile xs p] with linear interpolation between order statistics;
    [p] in [\[0, 1\]].  Does not mutate the input. *)
