(* The single implementation of Eqs. 1, 3 and 4, documented in
   kernel.mli.  Every reader goes through this file, so a swept value
   and a point value are the same float by construction. *)
module SF = Numerics.Safe_float

(* The recurrence state is an all-float record, which OCaml stores
   flat: [advance] overwrites its fields in place instead of boxing a
   fresh float per field and step. *)
type state = {
  r : float;
  s0 : float;
  mutable pi : float;
  mutable log_pi : float;
  (* Neumaier running state for sum_{i < n} pi_i, read as [sum +. comp]:
     the element order and operations of [Safe_float.sum] on the prefix
     array pi_0 .. pi_(n-1). *)
  mutable sum : float;
  mutable comp : float;
  (* [log10_error]'s logs: q's, and the last denominator's *)
  log_q : float;
  mutable denom : float;
  mutable log_denom : float;
}

type t = { params : Params.t; log_twin : bool; mutable n : int; st : state }

let create ?(log_twin = false) (p : Params.t) ~r =
  if r < 0. then invalid_arg "Kernel.create: negative listening period";
  { params = p;
    log_twin;
    n = 0;
    st =
      { r;
        s0 = p.delay.survival 0.;
        pi = 1.;
        log_pi = 0.;
        sum = 0.;
        comp = 0.;
        log_q = (if log_twin then SF.log p.q else nan);
        denom = nan;
        log_denom = nan } }

let n k = k.n
let pi k = k.st.pi
let sum_pi k = k.st.sum +. k.st.comp

let advance k =
  let st = k.st in
  (* past pi_n = +0 only n moves, bit-exactly: see kernel.mli *)
  if st.pi <> 0. || k.log_twin then begin
    (* pi_n joins the prefix sum before the step to n + 1 *)
    let x = st.pi in
    let t = st.sum +. x in
    if Float.abs st.sum >= Float.abs x then
      st.comp <- st.comp +. ((st.sum -. t) +. x)
    else st.comp <- st.comp +. ((x -. t) +. st.sum);
    st.sum <- t;
    (* S((n+1) r)/S(0); the ratio guards S(0) = 0 (a reply certain at
       time 0), the log twin divides unguarded *)
    let si = SF.div (k.params.delay.survival (float_of_int (k.n + 1) *. st.r)) st.s0 in
    st.pi <- st.pi *. (if st.s0 <= 0. then 0. else si);
    (* [si = 1.] skips the transcendental on the pre-round-trip plateau;
       IEEE guarantees [log 1. = +0.], so the sum is unchanged bit for
       bit *)
    if k.log_twin then
      st.log_pi <-
        (st.log_pi
        +. (if si <= 0. then neg_infinity else if si = 1. then 0. else SF.log si))
  end;
  k.n <- k.n + 1

let advance_to k ~n =
  if n < k.n then invalid_arg "Kernel.advance_to: cursor already past n";
  while k.n < n do
    advance k
  done

let require_step name k =
  if k.n < 1 then invalid_arg (name ^ ": n must be >= 1 (advance first)")

(* Eq. 3 *)
let cost k =
  require_step "Kernel.cost" k;
  let p = k.params and st = k.st in
  let sum_pi = st.sum +. st.comp in
  let pi_n = st.pi in
  let numerator =
    ((st.r +. p.probe_cost)
     *. ((float_of_int k.n *. (1. -. p.q)) +. (p.q *. sum_pi)))
    +. (p.q *. p.error_cost *. pi_n)
  in
  SF.div numerator (1. -. (p.q *. (1. -. pi_n)))

(* Eq. 4, with [Safe_float.clamp_probability] written out, so a cursor
   read boxes no float on the way *)
let[@inline] error_of_pi (p : Params.t) pi_n =
  let e = SF.div (p.q *. pi_n) (1. -. (p.q *. (1. -. pi_n))) in
  if e < 0. then 0. else if e > 1. then 1. else e

let error_probability k =
  require_step "Kernel.error_probability" k;
  error_of_pi k.params k.st.pi

let ln10 = SF.log 10.

(* Eq. 4 in the log domain: pi_n may underflow, but the denominator
   stays near 1 - q, so it is evaluated with the rounded pi_n, and its
   log taken again only when it moves *)
let log10_error k =
  require_step "Kernel.log10_error" k;
  if not k.log_twin then invalid_arg "Kernel.log10_error: no log twin";
  let p = k.params and st = k.st in
  let denom = 1. -. (p.q *. (1. -. SF.exp st.log_pi)) in
  if denom <> st.denom then begin
    st.denom <- denom;
    st.log_denom <- SF.log denom
  end;
  SF.div (st.log_q +. st.log_pi -. st.log_denom) ln10
