(** Hosts joining a link-local network over time, each configuring
    via zeroconf and then defending its address: the deployment stories
    of the paper's introduction (home networks accreting appliances,
    ad-hoc networks forming), and several hosts configuring at once, the
    setting of the companion Uppaal study (Zhang & Vaandrager [7]) that
    the paper's single-host model abstracts away.

    Every runner builds one {!Network} and starts a newcomer at each
    arrival time; an accepted newcomer that did not collide becomes a
    responder, defending its address against later arrivals.  Rivals
    may probe the same candidate at once: the draft's rule that such a
    probe is a conflict ({!Newcomer}) is what keeps them apart. *)

type pattern =
  | Poisson of float
      (** Arrivals at the given rate (per second) over the horizon. *)
  | Flash of { count : int; within : float }
      (** [count] hosts power on uniformly within the first [within]
          seconds — the power-restored scenario. *)
  | Periodic of float
      (** One arrival every given number of seconds. *)

type result = {
  arrivals : int;          (** Hosts that started configuring. *)
  outcomes : Metrics.outcome array;
      (** One per completed configuration, completion order. *)
  collisions : int;        (** Outcomes flagged as collided. *)
  all_unique : bool;       (** All accepted addresses distinct. *)
  last_completion : float; (** Virtual time of the last acceptance. *)
  mean_config_time : float; (** Over the outcomes; [0.] without any. *)
}

val check_capacity :
  pattern:pattern -> horizon:float -> initial:int -> pool_size:int -> unit
(** Raises [Invalid_argument] unless [initial] configured hosts plus
    the arrivals the pattern brings within [horizon] (their expected
    number, for [Poisson]) fit strictly inside a pool of [pool_size]
    addresses.  Front ends check this before {!run}, which still
    refuses a Poisson draw that exceeds its expectation that far. *)

val run :
  pattern:pattern -> horizon:float -> loss:float ->
  one_way:Dist.Distribution.t -> initial:int -> pool_size:int ->
  config:Newcomer.config ->
  rng:Numerics.Rng.t -> unit -> result
(** Simulate a network of instantly responding hosts that starts with
    [initial] configured hosts in a pool of [pool_size] addresses;
    arrivals follow [pattern] until [horizon] virtual seconds (drawn
    after the configured hosts claim their addresses), and the
    simulation then runs to completion of every started configuration.
    Raises [Invalid_argument], before any event runs, where the
    arrivals drawn would exhaust the address pool (a Poisson draw can
    exceed the expectation that {!check_capacity} bounds) and where the
    listening time [n r] of [config] is not finite. *)

val collision_rate_vs_newcomers :
  loss:float -> one_way:Dist.Distribution.t ->
  occupied:int -> pool_size:int -> config:Newcomer.config -> trials:int ->
  counts:int list -> rng:Numerics.Rng.t -> unit -> (int * float) list
(** Sweep the number of simultaneous newcomers and estimate the
    per-newcomer collision probability for each count: [trials]
    replications per count of that many newcomers starting at time 0
    on a network of [occupied] instantly responding hosts, each with
    its own generator split from [rng] before any replication draws.
    Raises [Invalid_argument] on a count below 1, where [occupied] plus
    a count exceeds the pool size, and on [n r] as {!run} does. *)
