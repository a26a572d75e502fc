(** The one linear solve behind every DTMC quantity: [x = b + Q x] over
    a subset of the states, by sparse Gaussian elimination.

    Every caller ({!Absorbing}, {!Reachability}, {!Mdp})
    restricts [Q] to states that leave the subset with positive
    probability, so [I - Q] is a nonsingular M-matrix: elimination needs
    no pivoting, and every update adds non-negative terms.  The pivot
    order is Markowitz's fill-reducing one: next comes the unknown with
    the fewest (row entries x column entries) among those left, ties to
    the lowest index.  The order depends on the sparsity pattern alone,
    never on what the states mean. *)

exception Singular
(** A pivot [1 - q_kk] came out zero or negative: some unknown cannot
    leave the subset, so the system has no unique solution. *)

val solve :
  unknown:bool array ->
  row:(int -> int array * float array) ->
  float array ->
  float array
(** [solve ~unknown ~row b] solves [x_i = b_i + sum_j q_ij x_j] for every
    state [i] with [unknown.(i)].  [row i] is [(cols, weights)], the
    entries of row [i] of [Q]; a repeated column adds its weights.
    Entries in columns outside [unknown] are dropped, so the caller
    folds their known values into [b].  The result has one entry per
    state, [0.] outside [unknown]. *)
