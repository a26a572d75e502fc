(* [Printf]'s %g and %f rebuild the spec string "%.<p>g" on every call
   (CamlinternalFormat.format_of_fconv) and then call this primitive;
   calling it with a prebuilt spec gives the same bytes for less work.
   Re-declaring a runtime external is the repo's sanctioned spelling
   (Numerics.Safe_float does the same). *)
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

let general ~digits =
  let spec = spec "general" "g" digits in
  fun x -> format_float spec x

let fixed ~decimals =
  let spec = spec "fixed" "f" decimals in
  fun x -> format_float spec x
