module SF = Numerics.Safe_float

let check_args name i r =
  if i < 0 then invalid_arg (name ^ ": negative probe index");
  if r < 0. then invalid_arg (name ^ ": negative listening period")

(* Eq. 1 telescopes to a single survival ratio: each factor is
   S(jr)/S((j-1)r), so the product over j = 1..i collapses to
   S(ir)/S(0). *)
let no_answer (p : Params.t) ~i ~r =
  check_args "Probes.no_answer" i r;
  if i = 0 then 1.
  else
    let s = p.delay.survival in
    let s0 = s 0. in
    if s0 <= 0. then 0. else SF.div (s (float_of_int i *. r)) s0

let no_answer_literal (p : Params.t) ~i ~r =
  check_args "Probes.no_answer_literal" i r;
  let f = p.delay.cdf in
  let acc = ref 1. in
  for j = 1 to i do
    let fj = f (float_of_int j *. r) and fj1 = f (float_of_int (j - 1) *. r) in
    let denom = 1. -. fj1 in
    let factor = if denom <= 0. then 0. else 1. -. SF.div (fj -. fj1) denom in
    acc := !acc *. SF.clamp_probability factor
  done;
  !acc

let pi_limit (p : Params.t) ~n =
  if n < 0 then invalid_arg "Probes.pi_limit: negative n";
  SF.pow (Dist.Distribution.loss_probability p.delay) (float_of_int n)
