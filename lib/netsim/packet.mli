(** ARP-level messages of the zeroconf initialization phase. *)

type t =
  | Arp_probe of { sender : int; address : int }
      (** "Who is using [address]?" — broadcast by a configuring host
          ([sender] is a host id, not an address; the probe's source
          address field is empty per the draft). *)
  | Arp_reply of { sender : int; address : int }
      (** "[address] is mine" — broadcast by its owner. *)

val address : t -> int
