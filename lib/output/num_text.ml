(* [Printf]'s %g and %f rebuild the spec string "%.<p>g" on every call
   (CamlinternalFormat.format_of_fconv) and then call this primitive;
   calling it with a prebuilt spec gives the same bytes for less work.
   It is the fallback of the fast paths below.  Re-declaring a runtime
   external is the repo's sanctioned spelling (Numerics.Safe_float does
   the same). *)
external format_float : string -> float -> string = "caml_format_float"

let max_digits = 10
let ipow10 =
  [| 1; 10; 100; 1_000; 10_000; 100_000; 1_000_000; 10_000_000; 100_000_000;
     1_000_000_000; 10_000_000_000 |]

(* The eight decimal digits of 0 <= v < 10^8, zero-padded, as ASCII
   bytes in memory order (the first digit in the lowest byte).  Each
   step splits every lane in two at once: v into two 4-digit lanes of
   32 bits, those into 2-digit lanes of 16 bits (u * 10486 lsr 20 is
   u / 100 for u < 10^4), those into digits of 8 bits (u * 103 lsr 10
   is u / 10 for u < 100); no lane's product reaches the next lane. *)
let[@inline] ascii8 v =
  let x = Int64.(logor (of_int (v / 10_000)) (shift_left (of_int (v mod 10_000)) 32)) in
  let q = Int64.(logand (shift_right_logical (mul x 10486L) 20) 0x7f_0000_007fL) in
  let x = Int64.(logor q (shift_left (sub x (mul q 100L)) 16)) in
  let q = Int64.(logand (shift_right_logical (mul x 103L) 10) 0xf_000f_000f_000fL) in
  let x = Int64.(logor q (shift_left (sub x (mul q 10L)) 8)) in
  Int64.logor x 0x3030_3030_3030_3030L

(* the [n] lowest decimal digits of [v >= 0], zero-padded (1 <= n <= 16,
   v < 10^n): eight bytes at a time, the unused tail truncated away *)
let rec add_run b v n =
  if n > 8 then begin
    add_run b (v / 100_000_000) (n - 8);
    add_run b (v mod 100_000_000) 8
  end
  else begin
    Buffer.add_int64_le b (ascii8 (v * ipow10.(8 - n)));
    Buffer.truncate b (Buffer.length b - 8 + n)
  end

(* digits of a non-positive [m], most significant first: working on
   the non-positive side covers [min_int], whose negation overflows *)
let rec add_nonpos b m =
  if m <= -10 then add_nonpos b (m / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (m mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_nonpos b n
  end
  else add_nonpos b (-n)

let spec name conv p =
  if p < 0 then invalid_arg ("Num_text." ^ name ^ ": negative precision");
  "%." ^ string_of_int p ^ conv

(* The fast paths scale |x| by 10^s into an integer range and round
   once.  [mantissa.(i)] 2^[exponent.(i)] is 10^s for s = i + min_scale,
   the mantissa in [1, 2) and off by at most half an ulp and 2^-95 (see
   below), so |x| 10^s is |x| 2^exponent, exact, times the mantissa,
   rounded once: y carries two roundings, and below 10^10 < 2^34 it is
   off by less than 2^-18 (3.8e-6).  Rounding y therefore gives the
   digits of the exact decimal value unless y's fraction lies within
   [tie_margin] of 1/2, where the two could straddle the tie.  The scales
   cover every normal double at every fast precision: s = p - 1 -
   floor (log10 |x|) lies in [-308, 317] for 1 <= p <= max_digits. *)
let min_scale = -308
let max_scale = 317
let tie_margin = 1e-5

let mantissa = Array.create_float (max_scale - min_scale + 1)
let exponent = Array.make (max_scale - min_scale + 1) 0

(* 10^s as a double-double (hi + lo) 2^e, hi in [1, 2), from 10^0 by
   exact steps: a product by 10 (or a quotient) whose rounding error
   the fma recovers, then a renormalisation by powers of two.  Each step
   loses about 2^-104 of relative accuracy, so after 317 steps hi + lo is
   within 2^-95 of 10^s 2^-e, and hi, its nearest double, within half an
   ulp and 2^-95.  Every float stays unboxed: the table is built in a few
   microseconds, allocating nothing, and never written again. *)
let () =
  let[@inline] put s hi e =
    mantissa.(s - min_scale) <- hi;
    exponent.(s - min_scale) <- e
  in
  put 0 1. 0;
  let hi = ref 1. and lo = ref 0. and e = ref 0 in
  for s = 1 to max_scale do
    let p = !hi *. 10. in
    let l = (!lo *. 10.) +. Float.fma !hi 10. (-.p) in
    hi := p +. l;
    lo := l -. (!hi -. p);
    while !hi >= 2. do
      hi := !hi *. 0.5;
      lo := !lo *. 0.5;
      incr e
    done;
    put s !hi !e
  done;
  hi := 1.;
  lo := 0.;
  e := 0;
  for s = -1 downto min_scale do
    let q = !hi /. 10. in
    (* hi - 10 q is exact, the remainder of a correctly rounded quotient *)
    let q' = (Float.fma (-.q) 10. !hi +. !lo) /. 10. in
    hi := q +. q';
    lo := q' -. (!hi -. q);
    while !hi < 1. do
      hi := !hi *. 2.;
      lo := !lo *. 2.;
      decr e
    done;
    put s !hi !e
  done

(* the integer nearest [y] (0 <= y < 2^34), or -1 when y is within
   [tie_margin] of a tie *)
let[@inline] round_scaled y =
  let d = Float.to_int y in
  let f = y -. Float.of_int d in
  if Float.abs (f -. 0.5) < tie_margin then -1
  else if f > 0.5 then d + 1
  else d

(* the [k] lowest decimal digits of [m >= 0], zero-padded, with a '.'
   after the first [point] of them when [point < k] *)
let add_digits b m k point =
  if point >= k then add_run b m k
  else begin
    let t = ipow10.(k - point) in
    add_run b (m / t) point;
    Buffer.add_char b '.';
    add_run b (m mod t) (k - point)
  end

(* C's %.<p>g of the [k] significant digits [d] (no trailing zero
   unless k = 1) with decimal exponent [e]: fixed notation when
   p > e >= -4, d.ddde+XX otherwise *)
let add_g_layout b p d k e =
  if e < p && e >= -4 then
    if e < 0 then begin
      Buffer.add_string b "0.";
      if e < -1 then add_run b 0 (-e - 1);
      add_run b d k
    end
    else if k <= e + 1 then add_run b (d * ipow10.(e + 1 - k)) (e + 1)
    else add_digits b d k (e + 1)
  else begin
    add_digits b d k 1;
    Buffer.add_string b (if e < 0 then "e-" else "e+");
    add_run b (abs e) (if abs e < 100 then 2 else 3)
  end

(* y = |x| 10^s, from the bits of |x|: adding the table's binary
   exponent to the exponent field is the exact product by its power of
   two (y / mantissa lies in [10^(p-2), 10^(p+1)), far from both ends of
   the normal range), which leaves the one rounding of the product.
   The bits are an int, the low 63 of the double's: all but the sign. *)
let[@inline] scaled abits s =
  let i = s - min_scale in
  Int64.float_of_bits
    (Int64.logand (Int64.of_int (abits + (exponent.(i) lsl 52))) Int64.max_int)
  *. mantissa.(i)

(* %.<p>g for 1 <= p <= max_digits and non-zero x, given as its sign
   and the bits of |x| (ints, so passing them boxes nothing); false
   when the value needs the fallback (a non-finite value, a subnormal,
   or a tie) *)
let add_general_fast b p neg abits =
  let biased = abits lsr 52 in
  biased > 0 && biased < 0x7ff
  &&
  (* floor (e2 log10 2) for the binary exponent e2 ((e2 * 78913) asr 18
     is exact for |e2| <= 1100) is floor (log10 |x|) or one less, so
     y = |x| 10^s >= 10^(p-1); when the estimate was one short,
     y >= 10^p and one step down puts it back *)
  let s = p - 1 - (((biased - 1023) * 78913) asr 18) in
  let y = scaled abits s in
  let top = Float.of_int ipow10.(p) in
  let s = if y >= top then s - 1 else s in
  let d = round_scaled (if y >= top then scaled abits s else y) in
  if d < ipow10.(p - 1) || d > ipow10.(p) then false
  else begin
    (* a carry to 10^p moves the exponent up by one *)
    let carry = d = ipow10.(p) in
    let e = if carry then p - s else p - 1 - s in
    let d = ref (if carry then ipow10.(p - 1) else d) and k = ref p in
    while !k > 1 && !d mod 10 = 0 do
      d := !d / 10;
      decr k
    done;
    if neg then Buffer.add_char b '-';
    add_g_layout b p !d !k e;
    true
  end

(* %.<decimals>f for decimals <= max_digits and |x| 10^decimals below
   10^max_digits; false when the value needs the fallback *)
let add_fixed_fast b decimals x =
  let y = Float.abs x *. Float.of_int ipow10.(decimals) in
  let m = if y < Float.of_int ipow10.(max_digits) then round_scaled y else -1 in
  if m < 0 then false
  else begin
    (* at least one digit before the point *)
    let k = ref (decimals + 1) in
    while !k <= max_digits && m >= ipow10.(!k) do
      incr k
    done;
    if Float.sign_bit x then Buffer.add_char b '-';
    add_digits b m !k (!k - decimals);
    true
  end

(* inlined into both entry points, so a float read out of an array
   is boxed only on the way to the fallback *)
let[@inline] general spec fast digits b x =
  if x = 0. then Buffer.add_string b (if Float.sign_bit x then "-0" else "0")
  else if
    not
      (fast
      && add_general_fast b digits (x < 0.)
           (Int64.to_int (Int64.bits_of_float x)))
  then Buffer.add_string b (format_float spec x)

let add_general ~digits =
  let spec = spec "general" "g" digits in
  let fast = digits >= 1 && digits <= max_digits in
  fun b x -> general spec fast digits b x

let add_general_at ~digits =
  let spec = spec "general" "g" digits in
  let fast = digits >= 1 && digits <= max_digits in
  fun b a i -> general spec fast digits b a.(i)

let add_fixed ~decimals =
  let spec = spec "fixed" "f" decimals in
  let fast = decimals <= max_digits in
  fun b x ->
    (* a NaN fails y < 10^max_digits, and so does an infinity *)
    if not (fast && add_fixed_fast b decimals x) then
      Buffer.add_string b (format_float spec x)
