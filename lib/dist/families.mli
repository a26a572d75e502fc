(** Parametric delay-distribution families.

    {!shifted_exponential} is the paper's choice (Sec. 4.3):
    [F_X(t) = l (1 - e^(-lambda (t - d)))] for [t >= d], i.e. a hard
    round-trip delay [d], exponential tail with rate [lambda], and a
    permanent-loss probability [1 - l].  The others give alternative
    tail shapes for sensitivity studies, and none of them is defective.
    A lossy exponential is [shifted_exponential ~delay:0. ~mass].

    Every constructor raises [Invalid_argument] on a NaN parameter or
    an infinite delay.  [rate = infinity] is legal for {!exponential}
    and {!shifted_exponential}: it is the deterministic-delay limit. *)

val exponential : rate:float -> unit -> Distribution.t
(** Memoryless delay with the given rate. *)

val shifted_exponential :
  mass:float -> rate:float -> delay:float -> unit -> Distribution.t
(** The paper's [F_X]: zero probability before the round-trip delay
    [delay] ([d] in the paper), exponential with [rate] ([lambda])
    after it, total mass [mass] ([l]).  Conditional mean
    is [delay + 1/rate], matching the paper's "[d + 1/lambda]". *)

val deterministic : delay:float -> unit -> Distribution.t
(** Replies arrive exactly [delay] seconds after the probe. *)

val uniform : lo:float -> hi:float -> unit -> Distribution.t
(** Delay uniform on [\[lo, hi\]]. *)
