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
