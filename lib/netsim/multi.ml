type result = {
  outcomes : Metrics.outcome array;
  all_unique : bool;
  collisions : int;
  makespan : float;
}

let run ~loss ~one_way ~occupied ?pool_size ~newcomers ?(spacing = 0.) ~config
    ~rng () =
  if newcomers < 1 then invalid_arg "Multi.run: newcomers < 1";
  if spacing < 0. then invalid_arg "Multi.run: negative spacing";
  let engine = Engine.create () in
  let pool = Address_pool.create ?size:pool_size () in
  let link = Link.create ~engine ~rng ~loss ~one_way in
  for _ = 1 to occupied do
    let address = Address_pool.claim_random_free pool ~rng in
    ignore (Host.create ~engine ~link ~rng ~address ())
  done;
  let finished = ref [] in
  let launch i =
    Engine.schedule engine ~after:(float_of_int i *. spacing) (fun () ->
        ignore
          (Newcomer.start ~engine ~link ~pool ~rng ~config
             ~on_done:(fun outcome ->
               finished := outcome :: !finished;
               (* a freshly configured host starts defending its address
                  (unless it collided: then the original owner defends) *)
               if not outcome.Metrics.collided then
                 ignore
                   (Host.create ~engine ~link ~rng
                      ~address:outcome.Metrics.address ()))
             ()))
  in
  for i = 0 to newcomers - 1 do
    launch i
  done;
  Engine.run engine;
  let outcomes = Array.of_list (List.rev !finished) in
  if Array.length outcomes <> newcomers then
    failwith "Multi.run: some newcomer never finished";
  let module Iset = Set.Make (Int) in
  let addresses =
    Array.fold_left
      (fun acc (o : Metrics.outcome) -> Iset.add o.Metrics.address acc)
      Iset.empty outcomes
  in
  { outcomes;
    all_unique = Iset.cardinal addresses = newcomers;
    collisions =
      Array.fold_left
        (fun acc (o : Metrics.outcome) -> if o.Metrics.collided then acc + 1 else acc)
        0 outcomes;
    makespan =
      Array.fold_left
        (fun acc (o : Metrics.outcome) -> Float.max acc o.Metrics.config_time)
        0. outcomes }

(* [trials] replications of [run], each with its own generator split
   from [rng] before any replication draws *)
let run_trials ~loss ~one_way ~occupied ?pool_size ~newcomers ~config ~trials
    ~rng () =
  let rngs = Array.init trials (fun _ -> Numerics.Rng.split rng) in
  Array.map
    (fun rng -> run ~loss ~one_way ~occupied ?pool_size ~newcomers ~config ~rng ())
    rngs

let collision_rate_vs_newcomers ~loss ~one_way ~occupied ?pool_size ~config
    ~trials ~counts ~rng () =
  if trials < 1 then invalid_arg "Multi.collision_rate_vs_newcomers: trials < 1";
  List.map
    (fun count ->
      let results =
        run_trials ~loss ~one_way ~occupied ?pool_size
          ~newcomers:count ~config ~trials ~rng ()
      in
      let collided =
        Array.fold_left (fun acc r -> acc + r.collisions) 0 results
      in
      (count, float_of_int collided /. float_of_int (trials * count)))
    counts
