type t = {
  engine : Engine.t;
  pool : Address_pool.t;
  link : Link.t;
  rng : Numerics.Rng.t;
  processing : Dist.Distribution.t option;
}

let defend t address =
  ignore
    (Host.create ~engine:t.engine ~link:t.link ~rng:t.rng
       ?processing:t.processing ~address ())

let claim t =
  let address = Address_pool.claim_random_free t.pool ~rng:t.rng in
  defend t address;
  address

let create ~loss ~one_way ?processing ~occupied ~pool_size ~rng () =
  let pool = Address_pool.create ~size:pool_size () in
  if occupied < 0 || occupied >= Address_pool.size pool then
    invalid_arg "Network.create: occupied outside [0, pool size)";
  let engine = Engine.create () in
  let link = Link.create ~engine ~rng ~loss ~one_way in
  let t = { engine; pool; link; rng; processing } in
  for _ = 1 to occupied do
    ignore (claim t)
  done;
  t
