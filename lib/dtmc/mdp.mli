(** Markov decision processes with total expected cost (stochastic
    shortest path): the decision-theoretic layer above {!Chain}.

    The zeroconf design question "which [(n, r)] should the next
    attempt use?" is an MDP whose states are attempt stages and whose
    actions are parameter choices; this module provides the standard
    machinery (value iteration, policy evaluation, policy iteration)
    for such absorbing cost MDPs. *)

type transition = {
  dst : int;
  prob : float;
  cost : float;  (** Charged when this transition fires. *)
}

type t

val create :
  num_states:int -> actions:(int -> (string * transition list) list) -> t
(** [actions s] lists the named actions available in state [s]; an
    empty list makes [s] absorbing (cost 0 thereafter).  Validates that
    each action's probabilities are positive and sum to one, and that
    destinations are in range.  Raises [Invalid_argument] otherwise. *)

type solution = {
  values : float array;        (** Minimal expected total cost per state. *)
  policy : int array;          (** Chosen action index per state ([-1] for absorbing). *)
  iterations : int;
}

val value_iteration : t -> solution
(** Gauss–Seidel value iteration to a relative sup-norm change of
    [1e-12]; raises [Failure] on non-convergence within [1_000_000]
    sweeps — e.g. when no proper policy exists
    (some state cannot reach absorption under any action). *)

val evaluate_policy : t -> policy:int array -> float array
(** Exact expected total cost of a fixed policy (one {!Sparse.solve}
    on the induced chain).  Raises [Invalid_argument] on out-of-range action
    indices and [Failure] when the induced chain is not absorbing from
    every state. *)
