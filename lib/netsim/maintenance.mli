(** The protocol's second part: collision detection and address defense
    during normal operation.

    The paper describes only the initialization phase and treats the
    consequence of an accepted collision as an opaque cost [E]
    ("the maintenance mechanism will later have to launch a costly
    protocol to re-establish the integrity of the IP numbers",
    Sec. 3.1).  This module simulates that costly protocol, giving [E]
    an operational reading:

    after an erroneous acceptance two hosts share an address; the
    conflict stays latent until background ARP traffic for that address
    makes one owner hear the other's reply.  The incumbent defends
    (broadcasts its claim); the newcomer must abandon the address and
    reconfigure from scratch, killing its established connections.  The
    disruption — detection latency plus reconfiguration time, weighted
    by the connections torn down — is the measurable counterpart of
    [E]. *)

type cost_estimate = {
  trials : int;
  disruption : Numerics.Stats.summary;
      (** Per collision, the outage window: virtual seconds from the
          collision until the newcomer learns of it, plus the zeroconf
          run time for its replacement address. *)
  mean_broken : float;
      (** Connections the newcomer had established on the colliding
          address (all torn down), per collision. *)
  suggested_error_cost : float;
      (** Mean disruption plus 30 per broken connection — on the
          paper's scale where one second of waiting costs 1, a broken
          connection costs as much as 30 s of waiting. *)
}

val estimate_error_cost :
  ?background_rate:float -> loss:float ->
  one_way:Dist.Distribution.t -> occupied:int -> pool_size:int ->
  config:Newcomer.config -> trials:int ->
  rng:Numerics.Rng.t -> unit -> cost_estimate
(** Monte-Carlo over [trials] latent collisions, each played out on
    the packet level.  [background_rate] (default [0.1]/s) is the
    Poisson rate of ARP traffic touching the contested address; the
    unsuspecting newcomer opens connections at [0.05]/s until
    detection.  Each run stops at a simulated horizon of [1e7] s;
    raises [Invalid_argument] up front when the probe schedule alone,
    [n r], reaches it, since such a conflict can never resolve, unless
    [occupied] is in [\[0, pool_size)], and at [loss = 0] unless
    [occupied + 2 <= pool_size]. *)
