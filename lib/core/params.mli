(** Scenario parameters of the zeroconf cost model.

    The paper separates {e protocol} parameters — the probe count [n]
    and listening period [r], which the designer controls — from
    {e application} parameters, fixed by the environment: the occupancy
    probability [q], the probe postage [c], the error cost [E], and the
    reply-delay distribution [F_X].  A {!t} bundles the application
    side; protocol parameters are passed per query. *)

type t = {
  name : string;
  delay : Dist.Distribution.t;
      (** [F_X]: distribution of the delay between sending an ARP probe
          and receiving its reply; defective mass encodes permanent
          loss (Sec. 3.2). *)
  q : float;
      (** Probability that the randomly chosen address is already in
          use; [q = m / 65024] for [m] occupied addresses. *)
  probe_cost : float;  (** The postage [c] charged per ARP probe. *)
  error_cost : float;  (** The cost [E] of accepting a colliding address. *)
}

val address_space_size : int
(** 65024: the IANA link-local range 169.254.1.0 – 169.254.254.255. *)

val q_of_hosts : int -> float
(** [q_of_hosts m = m / 65024], each host holding one address.  Raises
    [Invalid_argument] unless [0 <= m < 65024]. *)

val v :
  name:string -> delay:Dist.Distribution.t -> q:float ->
  probe_cost:float -> error_cost:float -> t
(** Validates [0 <= q < 1] and finite [probe_cost >= 0],
    [error_cost >= 0]; a NaN fails every check. *)

val with_costs : ?probe_cost:float -> ?error_cost:float -> t -> t
val with_q : t -> float -> t
val with_delay : t -> Dist.Distribution.t -> t

val loss_probability : t -> float
(** [1 - l] of the delay distribution. *)

(** {1 Paper scenarios} *)

val figure2 : t
(** Sec. 4.3 demonstration scenario: [d = 1], [l = 1 - 1e-15],
    [lambda = 10], [q = 1000/65024], [c = 2], [E = 1e35]
    (Figures 2–6). *)

val wireless_worst_case : t
(** Sec. 4.5, [r = 2] derivation: [1 - l = 1e-5], [d = 1],
    [lambda = 10], [q = 1000/65024], with the derived costs
    [E = 5e20], [c = 3.5]. *)

val realistic_ethernet : t
(** Sec. 6 assessment: [1 - l = 1e-12], [d = 1 ms], [lambda = 10],
    keeping [E = 5e20], [c = 3.5], [q = 1000/65024]. *)

val presets : (string * t) list
val pp : Format.formatter -> t -> unit
