(** Fitting delay distributions to measurements — the workflow the
    paper prescribes but could not execute ("Preferably, \[F_X\] should
    be based on measurements", Sec. 3.2).

    Measurements are reply delays with losses recorded either
    explicitly (count of probes that never got an answer) or as
    timeouts.  The fitted object is the paper's defective shifted
    exponential; {!assess} scores any candidate on the same sample. *)

type shifted_exp = {
  loss : float;   (** [1 - l]. *)
  delay : float;  (** Round-trip floor [d]. *)
  rate : float;   (** Tail rate [lambda]. *)
}

val shifted_exponential_mle :
  losses:int -> float array -> shifted_exp
(** Maximum likelihood for the defective shifted exponential:
    [loss = losses / (n + losses)], [d = min sample] (the MLE of a
    shift), [lambda = 1 / (mean - d)].  Raises [Invalid_argument] on an
    empty sample. *)

val to_distribution : shifted_exp -> Distribution.t

type quality = {
  ks_statistic : float;
      (** Kolmogorov–Smirnov distance between the fitted conditional
          CDF and the empirical one. *)
  log_likelihood : float;
}

val assess : losses:int -> Distribution.t -> float array -> quality
(** Fit quality of any candidate distribution on the sample. *)
