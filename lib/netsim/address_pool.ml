type t = { size : int; occupied : Bytes.t; mutable count : int }

let default_size = 65024

let create ?(size = default_size) () =
  if size < 1 then invalid_arg "Address_pool.create: size < 1";
  { size; occupied = Bytes.make size '\000'; count = 0 }

let size t = t.size

let check t a name =
  if a < 0 || a >= t.size then invalid_arg (name ^ ": address out of range")

let is_occupied t a =
  check t a "Address_pool.is_occupied";
  Bytes.get t.occupied a <> '\000'

let claim t a =
  check t a "Address_pool.claim";
  if is_occupied t a then invalid_arg "Address_pool.claim: already occupied";
  Bytes.set t.occupied a '\001';
  t.count <- t.count + 1

let random_candidate t ~rng = Numerics.Rng.int rng t.size

let claim_random_free t ~rng =
  if t.count >= t.size then failwith "Address_pool.claim_random_free: pool full";
  let rec draw () =
    let a = random_candidate t ~rng in
    if is_occupied t a then draw () else a
  in
  let a = draw () in
  claim t a;
  a
