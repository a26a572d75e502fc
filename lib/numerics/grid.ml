let linspace a b n =
  if n < 1 then invalid_arg "Grid.linspace: n < 1";
  if n = 1 then
    if a = b then [| a |] else invalid_arg "Grid.linspace: n = 1 with a <> b"
  else
    let h = (b -. a) /. float_of_int (n - 1) in
    let xs = Array.create_float n (* a loop boxes no point *) in
    for i = 0 to n - 1 do
      xs.(i) <- (if i = n - 1 then b else a +. (float_of_int i *. h))
    done;
    xs

let map_sweep f xs = Array.map (fun x -> (x, f x)) xs
