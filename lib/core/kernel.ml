(* The single implementation of Eqs. 1, 3 and 4.

   Every quantity the paper derives from the no-answer probabilities —
   Eq. 3's mean cost and Eq. 4's error probability — depends on n only
   through the telescoped no-answer products pi_n = prod_{i<=n} S(ir)/S(0),
   their prefix sum sum_{i<n} pi_i, and the log-space twin of pi_n.  All
   three obey O(1) recurrences in n, so a scan to n_max needs one
   survival evaluation per step, and a point read ([Cost.mean],
   [Reliability]) is a cursor advanced to n and read once.  Because
   every reader goes through this file, a swept value and a point value
   are the same float by construction. *)
module SF = Numerics.Safe_float

(* The recurrence state is an all-float record, which OCaml stores
   flat: [advance] overwrites its fields in place instead of boxing a
   fresh float per field and step. *)
type state = {
  r : float;
  s0 : float;
  mutable ratio : float;
  mutable pi : float;
  mutable log_pi : float;
  (* Neumaier running state for sum_{i < n} pi_i, read as [sum +. comp]:
     the element order and operations of [Safe_float.sum] on the prefix
     array pi_0 .. pi_(n-1). *)
  mutable sum : float;
  mutable comp : float;
}

type t = { params : Params.t; mutable n : int; st : state }

let create (p : Params.t) ~r =
  if r < 0. then invalid_arg "Kernel.create: negative listening period";
  { params = p;
    n = 0;
    st =
      { r;
        s0 = p.delay.survival 0.;
        ratio = 1.;
        pi = 1.;
        log_pi = 0.;
        sum = 0.;
        comp = 0. } }

(* the float state is copied too: a snapshot must not move with the
   cursor it was taken from *)
let copy k = { k with st = { k.st with r = k.st.r } }
let n k = k.n
let ratio k = k.st.ratio
let pi k = k.st.pi
let log_pi k = k.st.log_pi
let sum_pi k = k.st.sum +. k.st.comp

let advance k =
  let st = k.st in
  (* pi_n joins the prefix sum before the step to n + 1 *)
  let x = st.pi in
  let t = st.sum +. x in
  if Float.abs st.sum >= Float.abs x then
    st.comp <- st.comp +. ((st.sum -. t) +. x)
  else st.comp <- st.comp +. ((x -. t) +. st.sum);
  st.sum <- t;
  let i = k.n + 1 in
  let s_ir = k.params.delay.survival (float_of_int i *. st.r) in
  (* the ratio guards S(0) = 0 (a reply certain at time 0); the log
     twin divides unguarded *)
  let si = SF.div s_ir st.s0 in
  st.ratio <- (if st.s0 <= 0. then 0. else si);
  st.pi <- st.pi *. st.ratio;
  (* [si = 1.] skips the transcendental on the pre-round-trip plateau;
     IEEE guarantees [log 1. = +0.], so the sum is unchanged bit for
     bit *)
  st.log_pi <-
    (st.log_pi
    +. (if si <= 0. then neg_infinity else if si = 1. then 0. else SF.log si));
  k.n <- i

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

(* Eq. 4 *)
let error_of_pi (p : Params.t) pi_n =
  SF.clamp_probability (SF.div (p.q *. pi_n) (1. -. (p.q *. (1. -. pi_n))))

let error_probability k =
  require_step "Kernel.error_probability" k;
  error_of_pi k.params k.st.pi

(* Eq. 4 in the log domain: pi_n may underflow, but the denominator
   stays near 1 - q, so it is evaluated with the rounded pi_n *)
let log10_error k =
  require_step "Kernel.log10_error" k;
  let p = k.params in
  let log_pi = k.st.log_pi in
  let pi_n = SF.exp log_pi in
  let denom = 1. -. (p.q *. (1. -. pi_n)) in
  SF.div (SF.log p.q +. log_pi -. SF.log denom) (SF.log 10.)
