(** Absorbing-chain analysis: the machinery of the paper's Sections 4.1
    (mean accumulated cost, [a = -(P' - I)^(-1) w]) and 5 (absorption
    probabilities, [s (I - P')^(-1) e]).

    With transient states [T] (every non-absorbing state) and [Q] the
    [T x T] block of the transition matrix, each quantity is one
    {!Sparse.solve} of [x = b + Q x] on [T].  Every function raises
    [Invalid_argument] when the chain has no absorbing state or some
    state cannot reach one. *)

val absorption_probability : Chain.t -> from:int -> into:int -> float
(** Probability of ending in absorbing state [into] starting from
    [from].  [from] may itself be absorbing. *)

val expected_steps : Chain.t -> from:int -> float
(** Expected number of steps until absorption. *)

val expected_total_reward : Reward.t -> from:int -> float
(** The paper's mean total cost: the solution of [a = w + Q a]
    evaluated at [from], with [w] the one-step expected cost
    ({!Reward.one_step_expected}).  Zero when [from] is absorbing. *)

val variance_total_reward : Reward.t -> from:int -> float
(** Variance of the accumulated reward until absorption, from the
    central recursion [v_i = sum_j p_ij ((c_ij + a_j - a_i)^2 + v_j)]
    with [a] the mean above.  Every term is non-negative, so nothing
    cancels: the second-moment form [m2 - a^2] loses digits as the
    mean grows.  When a squared deviation overflows (costs past about
    [1e154]), the recursion is solved again on costs and means divided
    by the largest cost [s] and the result multiplied by [s] twice, so
    the variance stays finite up to about [max_float]; a variance that
    comes out finite the plain way keeps its bits. *)

val scaled_variance_total_reward : Reward.t -> from:int -> float * float
(** [(v, s)] with the variance above equal to [v s^2]: [s = 1.] and [v]
    the plain solve when that is finite, else the rescaled solve and
    the largest cost.  The standard deviation [sqrt v *. s] stays finite
    where the variance itself overflows. *)
