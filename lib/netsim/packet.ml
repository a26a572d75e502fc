type t =
  | Arp_probe of { sender : int; address : int }
  | Arp_reply of { sender : int; address : int }

let address = function
  | Arp_probe { address; _ } | Arp_reply { address; _ } -> address
