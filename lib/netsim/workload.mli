(** Long-horizon workloads: hosts joining a link-local network over
    time, each configuring via zeroconf and then defending its address.

    These are the deployment stories from the paper's introduction —
    home networks accreting appliances, ad-hoc networks forming — as
    repeatable workload patterns for the simulator. *)

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
  collisions : int;
  all_unique : bool;       (** All accepted addresses distinct. *)
  last_completion : float; (** Virtual time of the last acceptance. *)
  mean_config_time : float;
}

val check_capacity :
  pattern:pattern -> horizon:float -> initial:int -> pool_size:int -> unit
(** Raises [Invalid_argument] unless [initial] configured hosts plus
    the arrivals the pattern brings within [horizon] (their expected
    number, for [Poisson]) fit strictly inside a pool of [pool_size]
    addresses.  Front ends check this before {!run}, which still fails
    if a Poisson sample exceeds its expectation that far. *)

val run :
  pattern:pattern -> horizon:float -> loss:float ->
  one_way:Dist.Distribution.t -> ?initial:int -> ?pool_size:int ->
  config:Newcomer.config ->
  rng:Numerics.Rng.t -> unit -> result
(** Simulate a network of instantly responding hosts that starts with
    [initial] (default [0]) configured hosts; arrivals follow [pattern] until [horizon] virtual
    seconds, and the simulation then runs to completion of every
    started configuration.  Raises [Failure] if the address pool would
    be exhausted. *)
