(* The single implementation of Eqs. 1, 3 and 4, documented in
   kernel.mli.  Every reader goes through this file, so a swept value
   and a point value are the same float by construction. *)
module SF = Numerics.Safe_float

(* The recurrence state is an all-float record, which OCaml stores
   flat: [advance] overwrites its fields in place instead of boxing a
   fresh float per field and step. *)
type state = {
  mutable r : float;
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
  mutable si : float; (* the log twin's last ratio, and its log *)
  mutable log_si : float;
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
        log_denom = nan;
        si = 1.; log_si = 0. } }

(* every mutable field back to [create]'s value; [s0] and [log_q]
   depend on the scenario alone *)
let reset k rs i =
  let r = rs.(i) and st = k.st in
  if r < 0. then invalid_arg "Kernel.reset: negative listening period";
  k.n <- 0;
  st.r <- r;
  st.pi <- 1.;
  st.log_pi <- 0.;
  st.sum <- 0.;
  st.comp <- 0.;
  st.denom <- nan;
  st.log_denom <- nan;
  st.si <- 1.;
  st.log_si <- 0.

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
    (* a ratio equal to the last one reuses its log (see kernel.mli);
       [=] and equal bits differ only on zeros, both of log -inf *)
    if k.log_twin then begin
      if si <> st.si then (st.si <- si; st.log_si <- SF.log si);
      st.log_pi <- st.log_pi +. st.log_si
    end
  end;
  k.n <- k.n + 1

let advance_to k ~n =
  if n < k.n then invalid_arg "Kernel.advance_to: cursor already past n";
  while k.n < n do
    advance k
  done

let require_step name k =
  if k.n < 1 then invalid_arg (name ^ ": n must be >= 1 (advance first)")

let ln10 = SF.log 10.

type reader = Cost | Error | Log10

(* one expression per reader, inlined: a column read boxes no float *)
let[@inline] read k reader =
  let p = k.params and st = k.st in
  match reader with
  | Cost ->
      (* Eq. 3 *)
      let sum_pi = st.sum +. st.comp and pi_n = st.pi in
      let numerator =
        ((st.r +. p.probe_cost)
         *. ((float_of_int k.n *. (1. -. p.q)) +. (p.q *. sum_pi)))
        +. (p.q *. p.error_cost *. pi_n)
      in
      SF.div numerator (1. -. (p.q *. (1. -. pi_n)))
  | Error ->
      (* Eq. 4, with [Safe_float.clamp_probability] written out *)
      let e = SF.div (p.q *. st.pi) (1. -. (p.q *. (1. -. st.pi))) in
      if e < 0. then 0. else if e > 1. then 1. else e
  | Log10 ->
      (* Eq. 4 in the log domain: pi_n may underflow, but the
         denominator stays near 1 - q, so it is evaluated with the
         rounded pi_n, and its log taken again only when it moves *)
      let denom = 1. -. (p.q *. (1. -. SF.exp st.log_pi)) in
      if denom <> st.denom then begin
        st.denom <- denom;
        st.log_denom <- SF.log denom
      end;
      SF.div (st.log_q +. st.log_pi -. st.log_denom) ln10

let cost k =
  require_step "Kernel.cost" k;
  read k Cost

let error_probability k =
  require_step "Kernel.error_probability" k;
  read k Error

let log10_error k =
  require_step "Kernel.log10_error" k;
  if not k.log_twin then invalid_arg "Kernel.log10_error: no log twin";
  read k Log10

let column k reader ~lo ~hi dst off =
  if lo < max 1 k.n || hi < lo || off < 0 || off > Array.length dst - (hi - lo + 1)
  then invalid_arg "Kernel.column: n range or slots out of bounds";
  if reader = Log10 && not k.log_twin then invalid_arg "Kernel.column: no log twin";
  for n = lo to hi do
    advance_to k ~n;
    dst.(off + n - lo) <- read k reader
  done
