let default_h x = (Safe_float.epsilon ** (1. /. 3.)) *. Float.max 1. (Float.abs x)

let central ~f x =
  let h = default_h x in
  (f (x +. h) -. f (x -. h)) /. (2. *. h)

let richardson ~f x =
  let levels = 4 and h0 = default_h x *. 8. in
  (* Neville-style tableau on successively halved central differences. *)
  let d = Array.make levels 0. in
  for i = 0 to levels - 1 do
    let hi = h0 /. (2. ** float_of_int i) in
    d.(i) <- (f (x +. hi) -. f (x -. hi)) /. (2. *. hi)
  done;
  let tableau = Array.copy d in
  for j = 1 to levels - 1 do
    for i = levels - 1 downto j do
      let pow4 = 4. ** float_of_int j in
      tableau.(i) <- ((pow4 *. tableau.(i)) -. tableau.(i - 1)) /. (pow4 -. 1.)
    done
  done;
  tableau.(levels - 1)

let log_elasticity ~f x =
  if x <= 0. then invalid_arg "Derivative.log_elasticity: x <= 0";
  let fx = f x in
  if fx <= 0. then invalid_arg "Derivative.log_elasticity: f x <= 0";
  let g u = log (f (exp u)) in
  central ~f:g (log x)
