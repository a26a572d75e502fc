(** LU decomposition with partial pivoting, and the linear solves built
    on it.

    This is the engine behind the generic Markov-reward solve
    [(I - Q) a = w] (paper Sec. 4.1) and absorption probabilities
    [(I - Q) B = R] (Sec. 5). *)

exception Singular
(** Raised when a pivot is exactly zero (matrix is singular to working
    precision). *)

type t
(** A factorization [P A = L U]. *)

val decompose : Matrix.t -> t
(** Factorize a square matrix.  Raises [Invalid_argument] on non-square
    input and {!Singular} on singular input. *)

val solve_vec : t -> Vector.t -> Vector.t
(** Solve [A x = b] given the factorization of [A]. *)

val det : t -> float
(** Determinant of the factorized matrix. *)

val inverse : t -> Matrix.t

val solve : Matrix.t -> Vector.t -> Vector.t
(** One-shot [A x = b]. *)

val solve_matrix : Matrix.t -> Matrix.t -> Matrix.t
(** One-shot [A X = B]. *)

val refine : Matrix.t -> t -> Vector.t -> Vector.t -> Vector.t
(** [refine a fact b x] performs one step of iterative refinement on a
    candidate solution [x] of [a x = b]. *)
