type t =
  | Arp_probe of { sender : int; address : int }
  | Arp_reply of { sender : int; address : int }

let address = function
  | Arp_probe { address; _ } | Arp_reply { address; _ } -> address

let pp ppf = function
  | Arp_probe { sender; address } ->
      Format.fprintf ppf "probe[host%d, %a]" sender Address_pool.pp address
  | Arp_reply { sender; address } ->
      Format.fprintf ppf "reply[host%d, %a]" sender Address_pool.pp address
