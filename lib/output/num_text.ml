(* [Printf]'s %g and %f rebuild the spec string "%.<p>g" on every call
   (CamlinternalFormat.format_of_fconv) and then call this primitive;
   calling it with a prebuilt spec gives the same bytes for less work.
   It is the fallback of the fast paths below.  Re-declaring a runtime
   external is the repo's sanctioned spelling (Numerics.Safe_float does
   the same). *)
external format_float : string -> float -> string = "caml_format_float"

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
   once.  10^s is an exact double for |s| <= 22, so the scaled value y
   carries one rounding error, at most half an ulp; below 2^34 that is
   2^-20.  Rounding y therefore gives the digits of the exact decimal
   value unless y's fraction lies within [tie_margin] of 1/2, where the
   two could straddle the tie. *)
let max_scale = 22
let max_digits = 10
let tie_margin = 1e-5
let pow10 =
  Array.init (max_scale + 1) (fun k -> float_of_string ("1e" ^ string_of_int k))
let ipow10 = Array.init (max_digits + 1) (fun k -> int_of_float pow10.(k))

let scale a s = if s >= 0 then a *. pow10.(s) else a /. pow10.(-s)

(* the integer nearest [y] (0 <= y < 2^34), or -1 when y is within
   [tie_margin] of a tie *)
let round_scaled y =
  let d = Float.to_int y in
  let f = y -. Float.of_int d in
  if Float.abs (f -. 0.5) < tie_margin then -1
  else if f > 0.5 then d + 1
  else d

(* the [k] lowest decimal digits of [m >= 0], zero-padded, with a '.'
   after the first [point] of them when [point < k] *)
let rec add_digits b m k point =
  if k > 1 then add_digits b (m / 10) (k - 1) point;
  if k = point + 1 then Buffer.add_char b '.';
  Buffer.add_char b (Char.unsafe_chr (48 + (m mod 10)))

let add_zeros b k =
  for _ = 1 to k do
    Buffer.add_char b '0'
  done

(* C's %.<p>g of the [k] significant digits [d] (no trailing zero
   unless k = 1) with decimal exponent [e]: fixed notation when
   p > e >= -4, d.ddde+XX otherwise *)
let add_g_layout b p d k e =
  if e < p && e >= -4 then
    if e < 0 then begin
      Buffer.add_string b "0.";
      add_zeros b (-e - 1);
      add_digits b d k k
    end
    else if k <= e + 1 then begin
      add_digits b d k k;
      add_zeros b (e + 1 - k)
    end
    else add_digits b d k (e + 1)
  else begin
    add_digits b d k 1;
    Buffer.add_char b 'e';
    Buffer.add_char b (if e < 0 then '-' else '+');
    if abs e < 10 then Buffer.add_char b '0';
    add_int b (abs e)
  end

(* floor (e log10 2) for the binary exponent e of a normal [a > 0]
   ((e * 78913) asr 18 is exact for |e| <= 1100): floor (log10 a) or
   one less.  A subnormal gives an estimate far out of the fast path's
   reach. *)
let floor_log10_estimate a =
  let e = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float a) 52) - 1023 in
  (e * 78913) asr 18

(* %.<p>g for 1 <= p <= max_digits and finite non-zero [x]; false when
   the value needs the fallback (a scale out of reach, or a tie) *)
let add_general_fast b p x =
  let a = Float.abs x in
  (* y = a 10^s >= 10^(p-1); when the estimate was one short, y >= 10^p
     and one step down puts it back *)
  let s = p - 1 - floor_log10_estimate a in
  let s = if abs s <= max_scale && scale a s >= pow10.(p) then s - 1 else s in
  let d = if abs s <= max_scale then round_scaled (scale a s) else -1 in
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
    if x < 0. then Buffer.add_char b '-';
    add_g_layout b p !d !k e;
    true
  end

(* %.<decimals>f for decimals <= max_digits and |x| 10^decimals below
   10^max_digits; false when the value needs the fallback *)
let add_fixed_fast b decimals x =
  let y = Float.abs x *. pow10.(decimals) in
  let m = if y < pow10.(max_digits) then round_scaled y else -1 in
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

let add_general ~digits =
  let spec = spec "general" "g" digits in
  let fast = digits >= 1 && digits <= max_digits in
  fun b x ->
    if x = 0. then Buffer.add_string b (if Float.sign_bit x then "-0" else "0")
    else if not (fast && Float.is_finite x && add_general_fast b digits x) then
      Buffer.add_string b (format_float spec x)

let add_fixed ~decimals =
  let spec = spec "fixed" "f" decimals in
  let fast = decimals <= max_digits in
  fun b x ->
    (* a NaN fails y < 10^max_digits, and so does an infinity *)
    if not (fast && add_fixed_fast b decimals x) then
      Buffer.add_string b (format_float spec x)

let to_string add x =
  let b = Buffer.create 24 in
  add b x;
  Buffer.contents b

let general ~digits = to_string (add_general ~digits)
let fixed ~decimals = to_string (add_fixed ~decimals)
