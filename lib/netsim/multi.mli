(** Several hosts configuring at once — the setting of the companion
    Uppaal study (Zhang & Vaandrager [7]) that the paper's single-host
    model abstracts away.

    Newcomers may pick the same candidate simultaneously; the draft's
    rule that a probe from a rival for one's own candidate also counts
    as a conflict is implemented in {!Newcomer}, and this module
    measures how well it prevents newcomer–newcomer collisions. *)

type result = {
  outcomes : Metrics.outcome array; (** One per newcomer, completion order. *)
  all_unique : bool;     (** Every newcomer ended on a distinct address. *)
  collisions : int;      (** Outcomes flagged as collided. *)
  makespan : float;      (** Virtual time until the last acceptance. *)
}

val run :
  loss:float -> one_way:Dist.Distribution.t -> occupied:int ->
  ?pool_size:int -> newcomers:int -> ?spacing:float -> config:Newcomer.config ->
  rng:Numerics.Rng.t -> unit -> result
(** Start [newcomers] configuring hosts [spacing] seconds apart
    (default [0.]: all at once) on a link with [occupied] already-
    configured, instantly responding hosts.  Each accepted newcomer
    immediately becomes a responder itself, defending its new address
    against later arrivals. *)

val collision_rate_vs_newcomers :
  loss:float -> one_way:Dist.Distribution.t ->
  occupied:int -> ?pool_size:int -> config:Newcomer.config -> trials:int ->
  counts:int list -> rng:Numerics.Rng.t -> unit -> (int * float) list
(** Sweep the number of simultaneous newcomers and estimate the
    per-newcomer collision probability for each count: [trials]
    replications of {!run} per count, each with its own generator split
    from [rng] before any replication draws. *)
