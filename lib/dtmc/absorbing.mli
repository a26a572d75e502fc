(** Absorbing-chain analysis: the machinery of the paper's Sections 4.1
    (mean accumulated cost, [a = -(P' - I)^(-1) w]) and 5 (absorption
    probabilities, [s (I - P')^(-1) e]).

    Terminology follows Kulkarni / Kemeny–Snell: with transient states
    [T] and absorbing states [A], write the transition matrix in
    canonical form with [Q] the [T x T] block and [R] the [T x A]
    block.  The fundamental matrix is [N = (I - Q)^(-1)]. *)

type decomposition = {
  transient : int array;   (** Original indices of transient states. *)
  absorbing : int array;   (** Original indices of absorbing states. *)
  q : Numerics.Matrix.t;   (** [T x T] block. *)
  r : Numerics.Matrix.t;   (** [T x A] block. *)
}

val decompose : Chain.t -> decomposition
(** Raises [Invalid_argument] when some state can avoid absorption
    forever (the chain is not absorbing). *)

val fundamental : decomposition -> Numerics.Matrix.t
(** [N = (I - Q)^(-1)]; entry [(i, j)] is the expected number of visits
    to transient state [j] starting from transient state [i]. *)

val absorption_probabilities : Chain.t -> Numerics.Matrix.t
(** [B = N R], indexed by (transient position, absorbing position) in
    the order of {!decomposition}; row sums are one. *)

val absorption_probability : Chain.t -> from:int -> into:int -> float
(** Probability of ending in absorbing state [into] starting from
    [from] (original indices).  [from] may itself be absorbing. *)

val expected_steps : Chain.t -> from:int -> float
(** Expected number of steps until absorption. *)

val expected_visits : Chain.t -> from:int -> to_:int -> float
(** Expected visits to transient state [to_] before absorption. *)

val expected_total_reward : Reward.t -> from:int -> float
(** The paper's mean total cost: the solution [a = (I - Q)^(-1) w]
    evaluated at [from], with [w] the one-step expected cost
    ({!Reward.one_step_expected}).  Zero when [from] is absorbing. *)

val variance_total_reward : Reward.t -> from:int -> float
(** Variance of the accumulated reward until absorption, from the
    second-moment recursion
    [m2_i = sum_j p_ij ((c_ij + a_j)^2 + (m2_j - a_j^2))]. *)
