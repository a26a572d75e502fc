(** Streaming evaluation of Eqs. 1, 3 and 4.

    For a fixed scenario and listening period [(p, r)], a cursor of
    type {!t} maintains the recurrences

    {[ pi_n     = pi_(n-1) * S(n r) / S(0)
       sum_n    = sum_(n-1) + pi_(n-1)        (compensated)
       log pi_n = log pi_(n-1) + log (S(n r) / S(0)) ]}

    so that after [n] calls to {!advance} it can emit Eq. 3's mean cost,
    Eq. 4's error probability, and the log10 error in O(1).

    {b Readers.}  Only a cursor created [~log_twin:true] keeps [log pi_n]
    (a [log] per step) for {!log10_error}; without it that read raises
    [Invalid_argument].  The other reads need [n], [pi_n] and the
    sum alone, so once [pi_n] is [+0.] a cursor without the twin steps
    by incrementing [n] and reads the bits a full step would give: [+0.]
    times a ratio in [[+0, 1]] is [+0.], and adding [+0.] to a sum that
    holds [pi_0 = 1] keeps [sum +. comp] (only a [-0.] [comp] turns
    [+0.]).  Precondition: [survival] is finite, non-increasing and in
    [[+0, 1]], never [-0.], as the test suite's distribution
    self-check tests on a grid.  A step whose ratio [S(n r)/S(0)] has
    the bits of the last one (at first [1.]) reuses its log, bit for
    bit in one scenario at one [r], so a loss plateau takes one [log].

    This module is the only implementation of these quantities.  The
    optimizers' n-scans ({!Optimize.optimal_n}, the Fig. 4 envelope)
    read a cursor step by step; the point-wise closed forms
    ({!Cost.mean}, {!Reliability.error_probability},
    {!Reliability.log10_error_probability}) create a cursor, advance it
    to [n] and read it once.  A swept value therefore equals the point
    value bit for bit by construction.  The independent oracles for
    Eq. 1 are the literal product of the paper (a test-side oracle
    beside {!Probes.no_answer}), the DTMC of {!Drm} and the Monte-Carlo
    simulator. *)

type t
(** A streaming cursor: scenario, listening period, and the recurrence
    state at the current probe count [n]. *)

val create : ?log_twin:bool -> Params.t -> r:float -> t
(** Cursor at [n = 0] ([pi_0 = 1], empty prefix sum), with the log twin
    if [log_twin] (default [false]).  Raises [Invalid_argument] on a
    negative [r]. *)

val reset : t -> float array -> int -> unit
(** [reset k rs i] puts [k] back at [n = 0] at the listening period [r
    = rs.(i)], for the same scenario and log twin: every bit of state a
    read or a step uses ([pi_n], its log, the prefix sum and its
    Neumaier compensation, the log twin's last ratio and denominator
    with their logs) takes the value {!create} gives, so [k] then reads
    and steps exactly as [create ~log_twin p ~r] would.  It allocates
    nothing and calls no [survival]: [S(0)] and [log q] depend on the
    scenario alone, and [r] is read out of an array, so passing it
    boxes nothing.  Raises [Invalid_argument] on a negative [r], before
    [k] changes. *)

val advance : t -> unit
(** Step [n] to [n + 1]: folds [pi_n] into the prefix sum and performs
    the single survival evaluation at [(n + 1) r], if any. *)

val advance_to : t -> n:int -> unit
(** {!advance} until the cursor sits at [n].  Raises
    [Invalid_argument] if the cursor is already past [n] (cursors only
    move forward). *)

val n : t -> int
(** Current probe count. *)

val pi : t -> float
(** [pi_n(r) = prod_(i=0..n) p_i(r)]. *)

val sum_pi : t -> float
(** [pi_0 + ... + pi_(n-1)], compensated: equals
    [Safe_float.sum [| pi_0; ...; pi_(n-1) |]] bit for bit. *)

val cost : t -> float
(** Eq. 3's [C(n, r)] at the cursor.  Raises [Invalid_argument] at
    [n = 0]. *)

val error_probability : t -> float
(** Eq. 4's [E(n, r)] at the cursor: [q pi_n / (1 - q (1 - pi_n))],
    clamped to [[0, 1]].  Raises [Invalid_argument] at [n = 0]. *)

val log10_error : t -> float
(** [log10 E(n, r)] from the log twin [log pi_n], finite far below
    float underflow of [E]: [log q] taken once, the denominator's log when it moves.
    Raises [Invalid_argument] at [n = 0]. *)

type reader = Cost | Error | Log10  (** The three readers above. *)

val column : t -> reader -> lo:int -> hi:int -> float array -> int -> unit
(** [column k reader ~lo ~hi dst off] advances [k] over [n = lo .. hi],
    writing the reading at [n], in the point reader's bits, into
    [dst.(off + n - lo)], with no float boxed.  Raises
    [Invalid_argument], before [k] moves, unless [max 1 (n k) <= lo <=
    hi], those slots lie in [dst], and a [Log10] cursor has the twin. *)
