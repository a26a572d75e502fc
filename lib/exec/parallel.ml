(* About four chunks per worker: coarse enough to amortize queueing,
   fine enough to balance elements whose cost varies (e.g. Monte-Carlo
   streams of different trial counts). *)
let chunk_count pool n = min n (4 * Pool.size pool)

let map f xs =
  let pool = Pool.get () in
  let n = Array.length xs in
  if Pool.size pool = 1 || n < 2 then Array.map f xs
  else begin
    let results = Array.make n None in
    let tasks =
      Array.map
        (fun chunk () ->
          Array.iter (fun i -> results.(i) <- Some (f xs.(i))) chunk)
        (Numerics.Grid.chunks (chunk_count pool n) (Array.init n Fun.id))
    in
    Pool.run pool tasks;
    Array.map
      (function Some value -> value | None -> assert false (* all slots filled *))
      results
  end
