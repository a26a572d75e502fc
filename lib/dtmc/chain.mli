(** Discrete-time Markov chains over labelled states, stored as sparse
    rows.  States are dense integer indices; their labels print the way
    the paper writes them ([start], [1st], ..., [nth], [error],
    [ok]). *)

type t
(** A validated DTMC: every row is a probability distribution. *)

val create : labels:string array -> (int * float) list array -> t
(** [create ~labels rows]: state [i] is labelled [labels.(i)], and
    [rows.(i)] lists the [(column, probability)] entries of row [i], in
    any order.  Validates the labels (at least one, none empty, none
    repeated), the row count, the columns (in range, none repeated),
    non-negativity, and row sums within [1e-9]; rows
    are then renormalized exactly and zero entries dropped.  Raises
    [Invalid_argument] on violation. *)

val size : t -> int

val label : t -> int -> string
(** Raises [Invalid_argument] on an out-of-range index. *)

val prob : t -> int -> int -> float
(** One-step transition probability by index. *)

val successors : t -> int -> int array * float array
(** Row [i] as stored: the columns with positive probability, in
    ascending order, and their probabilities.  Do not mutate. *)

val find : t -> int -> int -> int
(** [find t i j] is the position of column [j] in [successors t i], or
    [-1] when the transition has probability zero. *)

val is_absorbing : t -> int -> bool
(** True when the state loops to itself with probability one. *)

val absorbing_states : t -> int list
