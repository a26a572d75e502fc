type station = { id : int; handler : Packet.t -> unit; mutable attached : bool }

type t = {
  engine : Engine.t;
  rng : Numerics.Rng.t;
  loss : float;
  one_way : Dist.Distribution.t;
  mutable stations : station list; (* newest first *)
  mutable next_id : int;
}

let create ~engine ~rng ~loss ~one_way =
  if not (Numerics.Safe_float.is_probability loss) then
    invalid_arg "Link.create: loss not in [0, 1]";
  { engine;
    rng;
    loss;
    one_way;
    stations = [];
    next_id = 0 }

let attach t handler =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.stations <- { id; handler; attached = true } :: t.stations;
  id

let detach t id =
  List.iter (fun s -> if s.id = id then s.attached <- false) t.stations

let broadcast t ~sender packet =
  let deliver station =
    if station.attached && station.id <> sender
       && not (Numerics.Rng.bool t.rng t.loss)
    then
      match t.one_way.sample t.rng with
      | None -> () (* the delay's defect: lost in transit *)
      | Some delay ->
          Engine.schedule t.engine ~after:delay (fun () ->
              if station.attached then station.handler packet)
  in
  List.iter deliver t.stations
