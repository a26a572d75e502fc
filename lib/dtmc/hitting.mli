(** Expected hitting times and hitting-time rewards for arbitrary
    target sets (the targets need not be absorbing).

    For the zeroconf chain this answers "expected number of protocol
    steps until [ok]" directly, but the machinery is the general
    first-passage solve: [h_i = 0] on the target,
    [h_i = 1 + sum_j p_ij h_j] elsewhere, restricted to states that
    reach the target almost surely. *)

val expected_steps : Chain.t -> target:int list -> float array
(** Expected number of steps to first hit the target; [infinity] for
    states that fail to reach it with probability one.  Target states
    get [0.]. *)

val expected_reward :
  Reward.t -> target:int list -> float array
(** Same first-passage solve, accumulating the reward structure instead
    of step counts. *)
