(** Monte-Carlo simulation of chains with rewards — the third,
    independent route to the paper's quantities (after the closed forms
    and the linear-algebra solve). *)

type path = {
  states : int array;     (** Visited states, first is the start. *)
  total_reward : float;   (** Accumulated transition rewards. *)
  absorbed : bool;        (** Whether the run ended in an absorbing state. *)
}

val run :
  ?max_steps:int -> rng:Numerics.Rng.t -> Reward.t -> from:int -> path
(** Sample one trajectory until absorption or [max_steps] (default
    [1_000_000]). *)

type estimate = {
  trials : int;
  mean : float;
  ci_lo : float;
  ci_hi : float;  (** 95% confidence bounds. *)
}

val estimate_total_reward :
  ?max_steps:int -> trials:int -> rng:Numerics.Rng.t -> Reward.t ->
  from:int -> estimate
(** Estimate the mean total reward (the paper's [C(n, r)]) by
    simulation. *)

val estimate_absorption :
  ?max_steps:int -> trials:int -> rng:Numerics.Rng.t -> Chain.t ->
  from:int -> into:int -> estimate
(** Estimate the absorption probability into a given state (the
    paper's error probability), with a Wilson interval. *)
