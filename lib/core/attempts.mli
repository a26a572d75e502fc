(** Attempt-indexed refinement of the cost model.

    The paper's DRM deliberately abstracts two details of the draft
    (Sec. 3.1): (a) a host may decide {e not} to retry addresses that
    failed before, and (b) after 10 conflicts the probing rate must drop
    to one address per minute.  Both break the memorylessness of the
    chain — the occupancy probability and the per-attempt overhead then
    depend on {e how many} attempts have happened — but the model stays
    analytic when decomposed by attempt index:

    attempt [i] ends in success with probability [1 - q_i], in an abort
    during period [k] with probability [q_i (pi_(k-1) - pi_k)], and in
    an accepted collision with probability [q_i pi_n].  Blacklisting
    makes [q_i = (m - (i-1)) / (M - (i-1))] (each abort reveals one
    occupied address, never to be drawn again); rate limiting charges an
    extra delay before every attempt past the threshold.

    With both refinements off, the attempt decomposition must reproduce
    Eqs. 3 and 4 exactly — the test suite asserts this, which validates
    the decomposition algebra itself. *)

type refinement = {
  blacklist : bool;
      (** Never retry an address that drew a defence reply. *)
  rate_limit : (int * float) option;
      (** [(threshold, delay)]: every attempt after the first
          [threshold] conflicts starts [delay] seconds late (the
          draft's 10 conflicts / 60 s). *)
  occupied : int;  (** [m], the number of configured hosts. *)
  pool : int;      (** [M], the address-space size (65024). *)
}

val validate_refinement : refinement -> unit
(** Raises [Invalid_argument] unless [pool >= 1], [0 <= occupied <
    pool], and a rate limit has a threshold [>= 0] and a finite delay
    [>= 0]. *)

val no_refinement : occupied:int -> pool:int -> unit -> refinement
(** Neither refinement, after {!validate_refinement}. *)

type analysis = {
  mean_cost : float;
  error_probability : float;
  mean_time : float;      (** Seconds until an address is accepted. *)
  mean_attempts : float;
  truncated_mass : float;
      (** Probability mass beyond the attempt cutoff (should be ~0). *)
}

val compare_refinements :
  Params.t -> occupied:int -> pool:int -> n:int -> r:float -> unit ->
  (string * analysis) list
(** The ablation table: baseline, blacklist only, rate limit only,
    both.  Raises [Invalid_argument] when an attempt's largest cost
    [n (r + c) + E] is not finite, before any refinement runs. *)
