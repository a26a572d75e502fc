(* [Printf]'s %g and %f rebuild the spec string "%.<p>g" on every call
   (CamlinternalFormat.format_of_fconv) and then call this primitive;
   calling it with a prebuilt spec gives the same bytes for less work.
   It is the fallback of the fast paths below.  Re-declaring a runtime
   external is the repo's sanctioned spelling (Numerics.Safe_float does
   the same). *)
external format_float : string -> float -> string = "caml_format_float"

(* The layout below stores without bounds checks: every writer first
   reserves [room] bytes at its position, and no fast rendering reaches
   past them (the bounds are stated at each function).  The stores are
   little-endian on any host, as Stdlib.Bytes spells them. *)
external unsafe_set_int64_ne : Bytes.t -> int -> int64 -> unit
  = "%caml_bytes_set64u"
external unsafe_set_int16_ne : Bytes.t -> int -> int -> unit
  = "%caml_bytes_set16u"
external big_endian : unit -> bool = "%big_endian"
external swap64 : int64 -> int64 = "%bswap_int64"
external swap16 : int -> int = "%bswap16"

let[@inline] unsafe_set_int64_le s i x =
  unsafe_set_int64_ne s i (if big_endian () then swap64 x else x)

let[@inline] unsafe_set_int16_le s i x =
  unsafe_set_int16_ne s i (if big_endian () then swap16 x else x)

(* -- the caller's block --------------------------------------------- *)

type block = { mutable bytes : Bytes.t }

let room = 32
let block n = { bytes = Bytes.create (max n room) }

(* [blk] grown to hold [pos + n] bytes, at least doubled, its first
   [pos] kept *)
let grow blk pos n =
  let s = Bytes.create (max (pos + n) (2 * Bytes.length blk.bytes)) in
  Bytes.blit blk.bytes 0 s 0 pos;
  blk.bytes <- s;
  s

let[@inline] reserve blk pos n =
  let s = blk.bytes in
  if pos + n <= Bytes.length s then s else grow blk pos n

let write_string blk pos str =
  let n = String.length str in
  Bytes.blit_string str 0 (reserve blk pos n) pos n;
  pos + n

let write_char blk pos c =
  Bytes.set (reserve blk pos 1) pos c;
  pos + 1

(* -- digits as words ------------------------------------------------ *)

let max_digits = 10
let ipow10 =
  [| 1; 10; 100; 1_000; 10_000; 100_000; 1_000_000; 10_000_000; 100_000_000;
     1_000_000_000; 10_000_000_000; 100_000_000_000; 1_000_000_000_000;
     10_000_000_000_000; 100_000_000_000_000; 1_000_000_000_000_000;
     10_000_000_000_000_000; 100_000_000_000_000_000;
     1_000_000_000_000_000_000 |]

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

(* The [k] lowest decimal digits of [m >= 0] (m < 10^k, 1 <= k <= 16),
   zero-padded, at [pos] of [s], as one or two ascii8 words: the first
   k - 8 digits as the head of a word (of a 16-bit store when they are
   one or two, as at ten significant digits), then the last eight over
   its tail.  It writes [max 8 k] bytes from [pos]: past the k digits,
   only the zeros of a short word. *)
let[@inline] put_digits s pos m k =
  if k <= 8 then unsafe_set_int64_le s pos (ascii8 (m * ipow10.(8 - k)))
  else if k <= 10 then begin
    let h = m / 100_000_000 * ipow10.(10 - k) in
    unsafe_set_int16_le s pos (0x3030 lor (h / 10) lor ((h mod 10) lsl 8));
    unsafe_set_int64_le s (pos + k - 8) (ascii8 (m mod 100_000_000))
  end
  else begin
    unsafe_set_int64_le s pos (ascii8 (m / 100_000_000 * ipow10.(16 - k)));
    unsafe_set_int64_le s (pos + k - 8) (ascii8 (m mod 100_000_000))
  end

(* the same [k] digits with a point after the first [i] of them
   (1 <= i < k): laid out one byte to the right, then the first [i]
   moved back over the point's place *)
let[@inline] put_pointed s pos m k i =
  put_digits s (pos + 1) m k;
  for j = pos to pos + i - 1 do
    Bytes.unsafe_set s j (Bytes.unsafe_get s (j + 1))
  done;
  Bytes.unsafe_set s (pos + i) '.'

(* -- integers ------------------------------------------------------- *)

(* the digits of [m >= 0] at [pos]; the end (at most 19 digits, and at
   most 19 bytes written) *)
let put_nonneg s pos m =
  let k = ref 1 in
  while !k < 19 && m >= ipow10.(!k) do
    incr k
  done;
  let k = !k in
  if k <= 16 then put_digits s pos m k
  else begin
    put_digits s pos (m / ipow10.(16)) (k - 16);
    put_digits s (pos + k - 16) (m mod ipow10.(16)) 16
  end;
  pos + k

let write_int blk pos n =
  let s = reserve blk pos room in
  if n >= 0 then put_nonneg s pos n
  else begin
    Bytes.set s pos '-';
    if n > min_int then put_nonneg s (pos + 1) (-n)
    else begin
      (* -min_int overflows: its last digit goes apart *)
      let e = put_nonneg s (pos + 1) (-(n / 10)) in
      Bytes.set s e (Char.unsafe_chr (48 - (n mod 10)));
      e + 1
    end
  end

(* -- floats --------------------------------------------------------- *)

let spec name conv p =
  if p < 0 then invalid_arg ("Num_text." ^ name ^ ": negative precision");
  "%." ^ string_of_int p ^ conv

(* The fast paths scale |x| by 10^s into an integer range and round
   once.  10^s is m 2^e for s = i + min_scale, the mantissa m in [1, 2)
   and off by at most half an ulp and 2^-95 (see below), so |x| 10^s is
   |x| 2^e, exact, times m, rounded once: y carries two roundings, and
   below 10^10 < 2^34 it is off by less than 2^-18 (3.8e-6).  Rounding y therefore gives the
   digits of the exact decimal value unless y's fraction lies within
   [tie_margin] of 1/2, where the two could straddle the tie.  The scales
   cover every normal double at every fast precision: s = p - 1 -
   floor (log10 |x|) lies in [-308, 317] for 1 <= p <= max_digits. *)
let min_scale = -308
let max_scale = 317
let tie_margin = 1e-5

(* The scaling multiplies floats only (turning bits back into a double
   is a C call in OCaml 5.1): |x| by [shift.(i)] = 2^k, then by
   [power.(i)] = m 2^(e - k).  Both factors are exact doubles, and so is
   the first product, so y is the same product rounded once.  k is 0
   where 10^s is a normal double; at the table's ends, where it is not
   (s = -308, s > 308), k = -64 or 64 keeps the factor normal, and the
   first product too (|x| is then above 1e307 or below 1e-298). *)
let power = Array.create_float (max_scale - min_scale + 1)
let shift = Array.create_float (max_scale - min_scale + 1)

(* 10^s as a double-double (hi + lo) 2^e, hi in [1, 2), from 10^0 by
   exact steps: a product by 10 (or a quotient) whose rounding error
   the fma recovers, then a renormalisation by powers of two.  Each step
   loses about 2^-104 of relative accuracy, so after 317 steps hi + lo is
   within 2^-95 of 10^s 2^-e, and hi, its nearest double, within half an
   ulp and 2^-95.  Every float stays unboxed: the table is built in a few
   microseconds, allocating nothing, and never written again. *)
let () =
  let[@inline] put s hi e =
    let k = if e < -1022 then -64 else if e > 1023 then 64 else 0 in
    power.(s - min_scale) <- Float.ldexp hi (e - k);
    shift.(s - min_scale) <- Float.ldexp 1. k
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

(* y = |x| 10^s: the product by [shift] is exact (y / m lies in
   [10^(p-2), 10^(p+1)), far from both ends of the normal range), which
   leaves the one rounding of the product by [power].  [s] lies in the
   table's range for every normal double at every fast precision (see
   above), so it is read unchecked. *)
let[@inline] scaled ax s =
  let i = s - min_scale in
  ax *. Array.unsafe_get shift i *. Array.unsafe_get power i

(* C's %.<p>g of the [p] significant digits [d] (10^(p-1) <= d <
   10^p) with decimal exponent [e], at [pos]; the end.  The digits go
   out as one block, and the point, the trim of trailing zeros (the
   point with them when no fraction is left) and the exponent are byte
   moves around it: fixed notation when p > e >= -4, d.ddde+XX
   otherwise.  It writes at most 16 bytes from [pos]. *)
let[@inline] put_g s pos p d e =
  if e < 0 && e >= -4 then begin
    (* "0.000000", of which the first 1 - e bytes stay *)
    unsafe_set_int64_le s pos 0x3030_3030_3030_2e30L;
    let first = pos + 1 - e in
    put_digits s first d p;
    let j = ref (first + p) in
    while Bytes.unsafe_get s (!j - 1) = '0' do
      decr j
    done;
    !j
  end
  else begin
    let fixed = e >= 0 && e < p in
    let i = if fixed then e + 1 else 1 in
    let j =
      if i = p then begin
        put_digits s pos d p;
        pos + p
      end
      else begin
        put_pointed s pos d p i;
        let j = ref (pos + p + 1) in
        while Bytes.unsafe_get s (!j - 1) = '0' do
          decr j
        done;
        (* a point with no digit after it goes too *)
        if !j = pos + i + 1 then pos + i else !j
      end
    in
    if fixed then j
    else begin
      let a = abs e in
      Bytes.unsafe_set s j 'e';
      Bytes.unsafe_set s (j + 1) (if e < 0 then '-' else '+');
      let j =
        if a < 100 then j + 2
        else begin
          Bytes.unsafe_set s (j + 2) (Char.unsafe_chr (48 + (a / 100)));
          j + 3
        end
      in
      Bytes.unsafe_set s j (Char.unsafe_chr (48 + (a / 10 mod 10)));
      Bytes.unsafe_set s (j + 1) (Char.unsafe_chr (48 + (a mod 10)));
      j + 2
    end
  end

(* %.<p>g at [pos] for 1 <= p <= max_digits and non-zero x, given as
   its sign, |x| and the bits of |x| (an int: the low 63 of the
   double's, all but the sign), for its binary exponent; the end, or -1
   when the value needs the fallback (a non-finite value, a subnormal,
   or a tie), nothing written then *)
let[@inline] general_fast s pos p neg ax abits =
  let biased = abits lsr 52 in
  if biased = 0 || biased = 0x7ff then -1
  else
    (* floor (e2 log10 2) for the binary exponent e2 ((e2 * 78913) asr 18
       is exact for |e2| <= 1100) is floor (log10 |x|) or one less, so
       y = |x| 10^s >= 10^(p-1); when the estimate was one short,
       y >= 10^p and one step down puts it back *)
    let s10 = p - 1 - (((biased - 1023) * 78913) asr 18) in
    let y = scaled ax s10 in
    let top = Float.of_int ipow10.(p) in
    let s10 = if y >= top then s10 - 1 else s10 in
    let d = round_scaled (if y >= top then scaled ax s10 else y) in
    if d < ipow10.(p - 1) || d > ipow10.(p) then -1
    else begin
      (* a carry to 10^p moves the exponent up by one *)
      let carry = d = ipow10.(p) in
      let e = if carry then p - s10 else p - 1 - s10 in
      let d = if carry then ipow10.(p - 1) else d in
      if neg then begin
        Bytes.set s pos '-';
        put_g s (pos + 1) p d e
      end
      else put_g s pos p d e
    end

(* %.<decimals>f at [pos] for decimals <= max_digits and |x| 10^decimals
   below 10^max_digits (at most 12 bytes); the end, or -1 when the value
   needs the fallback, nothing written then *)
let fixed_fast s pos decimals x =
  let y = Float.abs x *. Float.of_int ipow10.(decimals) in
  let m = if y < Float.of_int ipow10.(max_digits) then round_scaled y else -1 in
  if m < 0 then -1
  else begin
    (* at least one digit before the point *)
    let k = ref (decimals + 1) in
    while !k <= max_digits && m >= ipow10.(!k) do
      incr k
    done;
    let k = !k in
    let pos =
      if Float.sign_bit x then begin
        Bytes.set s pos '-';
        pos + 1
      end
      else pos
    in
    if decimals = 0 then begin
      put_digits s pos m k;
      pos + k
    end
    else begin
      put_pointed s pos m k (k - decimals);
      pos + k + 1
    end
  end

(* inlined into both entry points, so a float read out of an array
   is boxed only on the way to the fallback *)
let[@inline] general spec fast digits blk pos x =
  let s = reserve blk pos room in
  if x = 0. then
    if Float.sign_bit x then begin
      Bytes.set s pos '-';
      Bytes.set s (pos + 1) '0';
      pos + 2
    end
    else begin
      Bytes.set s pos '0';
      pos + 1
    end
  else
    let j =
      if fast then
        general_fast s pos digits (x < 0.) (Float.abs x)
          (Int64.to_int (Int64.bits_of_float x))
      else -1
    in
    if j >= 0 then j else write_string blk pos (format_float spec x)

let write_general ~digits =
  let spec = spec "general" "g" digits in
  let fast = digits >= 1 && digits <= max_digits in
  fun blk pos x -> general spec fast digits blk pos x

let write_general_at ~digits =
  let spec = spec "general" "g" digits in
  let fast = digits >= 1 && digits <= max_digits in
  fun blk pos a i -> general spec fast digits blk pos a.(i)

let write_fixed ~decimals =
  let spec = spec "fixed" "f" decimals in
  let fast = decimals <= max_digits in
  fun blk pos x ->
    (* a NaN fails y < 10^max_digits, and so does an infinity *)
    let j = if fast then fixed_fast (reserve blk pos room) pos decimals x else -1 in
    if j >= 0 then j else write_string blk pos (format_float spec x)
