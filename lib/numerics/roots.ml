type result = { root : float; value : float; iterations : int }

let check_sign_change name fa fb =
  if fa *. fb > 0. then
    invalid_arg (name ^ ": endpoints do not bracket a root")

let bisect ~f a b =
  let tol = 1e-12 and max_iter = 200 in
  let fa = f a and fb = f b in
  check_sign_change "Roots.bisect" fa fb;
  if fa = 0. then { root = a; value = 0.; iterations = 0 }
  else if fb = 0. then { root = b; value = 0.; iterations = 0 }
  else
    let rec loop a fa b k =
      let m = 0.5 *. (a +. b) in
      let fm = f m in
      if fm = 0. || (b -. a) /. 2. < tol || k >= max_iter then
        { root = m; value = fm; iterations = k }
      else if fa *. fm < 0. then loop a fa m (k + 1)
      else loop m fm b (k + 1)
    in
    let a, fa, b = if a <= b then (a, fa, b) else (b, fb, a) in
    loop a fa b 0
