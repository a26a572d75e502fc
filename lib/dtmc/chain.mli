(** Discrete-time Markov chains over a labelled state space, stored as
    sparse rows. *)

type t
(** A validated DTMC: every row is a probability distribution. *)

val create :
  ?tol:float -> states:State_space.t -> (int * float) list array -> t
(** [create ~states rows]: [rows.(i)] lists the [(column, probability)]
    entries of row [i], in any order.  Validates the row count, the
    columns (in range, none repeated), non-negativity, and row sums
    within [tol] (default [1e-9]); rows are then renormalized exactly
    and zero entries dropped.  Raises [Invalid_argument] on
    violation. *)

val states : t -> State_space.t
val size : t -> int

val prob : t -> int -> int -> float
(** One-step transition probability by index. *)

val prob_by_label : t -> string -> string -> float

val successors : t -> int -> int array * float array
(** Row [i] as stored: the columns with positive probability, in
    ascending order, and their probabilities.  Do not mutate. *)

val find : t -> int -> int -> int
(** [find t i j] is the position of column [j] in [successors t i], or
    [-1] when the transition has probability zero. *)

val is_absorbing : t -> int -> bool
(** True when the state loops to itself with probability one. *)

val absorbing_states : t -> int list
val transient_states : t -> int list
(** States from which an absorbing state is reachable.  For absorbing
    chains this is the complement of {!absorbing_states}. *)

val reachable : t -> from:int -> bool array
(** Graph reachability (positive-probability paths). *)

val pp : Format.formatter -> t -> unit
