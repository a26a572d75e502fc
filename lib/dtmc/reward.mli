(** Reward (cost) structures attached to a chain, as in the paper's
    Markov reward models: a cost on each transition, stored beside the
    chain's rows. *)

type t

val create : transition_rewards:(int * float) list array -> Chain.t -> t
(** [transition_rewards.(i)] lists the [(column, cost)] entries of row
    [i]; unlisted transitions cost nothing.  The paper requires zero
    cost on transitions with zero probability and zero self-loop cost
    on absorbing states (otherwise total cost diverges); [create]
    enforces both and raises [Invalid_argument] on violation. *)

val transition : t -> int -> int -> float

val costs : t -> int -> float array
(** The costs of row [i], aligned with [Chain.successors]. *)

val one_step_expected : t -> float array
(** The vector [w] with [w_i = sum_j p_ij * c_ij]: the expected cost of
    one step out of each state (Sec. 4.1 of the paper). *)

val chain : t -> Chain.t
