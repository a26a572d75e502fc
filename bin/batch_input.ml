(* The [zeroconf_cli batch] front end: parse, route and validate one
   query line at a time, in one pass over its bytes, and append it to an
   [Engine.Batch.t] in place.

   The input is one byte buffer, the whole text or a chunk read from a
   channel (of which only the lines a '\n' ends are parsed, until the
   input ends): a line is the span up to its '\n', and its
   tokens (separated by ' ' or '\t' up to the first '#', without the
   blanks [String.trim] would cut from either end) are spans too, each
   cut at its first '=' into a key and a value.  The key is matched
   against a static table in place; a value that is a preset or
   quantity name, a plain decimal int or a plain decimal float is read
   where it stands, its end found by the read.  Any other value is cut
   at the token's end first; a number there goes to [int_of_string] or
   [float_of_string], which keep their liberal syntax (0x10, 1_000, hex
   floats).  Every message is the one the list-based parser gave, with
   the same precedence inside a line.  One settings record serves every
   line, and numbers go into arrays, so nothing is built or boxed per
   line but the grid of an rs= sweep. *)

type state = {
  mutable text : bytes;  (* the input, or a chunk of it *)
  mutable len : int;  (* the end of its bytes *)
  mutable stop : int;  (* the line's end: its '\n', or [len] *)
  mutable vend : int;  (* the end of the value read last, less blanks *)
  mutable lineno : int;
  mutable quantity : Engine.Query.quantity;
  mutable given : int;  (* bit k: keys.(k) appeared on the line *)
  mutable preset : int;  (* the scenario's row of [presets] *)
  ints : int array;  (* [| n; trials; seed |] *)
  r : float array;  (* [| r; rs lo; rs hi |] *)
  mutable ns_lo : int;
  mutable ns_hi : int;
  mutable rs : float array;
  mutable backend : string option;
}

let fail_at lineno msg = failwith (Printf.sprintf "line %d: %s" lineno msg)
let fail st msg = fail_at st.lineno msg
let span st a b = Bytes.sub_string st.text a (b - a)

(* The helpers below are top-level functions with every variable passed
   in, so the per-token path allocates no closure.  The scans take the
   text's length [len] and stop there. *)

let rec index_from line i stop c =
  if i >= stop then -1
  else if Bytes.unsafe_get line i = c then i
  else index_from line (i + 1) stop c

let[@inline] is_sep c = c = ' ' || c = '\t'

(* String.trim's character set but '\n', which ends the line *)
let[@inline] is_blank c = is_sep c || c = '\r' || c = '\012'

let rec skip_seps text len i =
  if i < len && is_sep (Bytes.unsafe_get text i) then
    skip_seps text len (i + 1)
  else i

let rec skip_blanks text len i =
  if i < len && is_blank (Bytes.unsafe_get text i) then
    skip_blanks text len (i + 1)
  else i

(* nothing but blanks and a comment from [i] on: then [st.stop] is the
   line's end *)
let at_end st i =
  let text = st.text and len = st.len in
  let j = skip_blanks text len i in
  (j = len || Bytes.unsafe_get text j = '\n' || Bytes.unsafe_get text j = '#')
  && begin
       st.stop <- index_from text j len '\n';
       if st.stop < 0 then st.stop <- len;
       true
     end

(* a printable character other than '#' starts a token: the line goes
   on there, without [at_end]'s scan *)
let[@inline] more st i =
  i < st.len
  &&
  let c = Bytes.unsafe_get st.text i in
  c > ' ' && c <> '#'

(* a token ends at ' ', '\t', '#', '\n' or the text's end *)
let[@inline] ends_token text len i =
  i >= len
  ||
  match Bytes.unsafe_get text i with
  | ' ' | '\t' | '#' | '\n' -> true
  | _ -> false

let rec token_end text len i =
  if ends_token text len i then i else token_end text len (i + 1)

(* [e] without the blanks that end the line's last token *)
let rec trim_end line a e =
  if e > a && is_blank (Bytes.unsafe_get line (e - 1)) then
    trim_end line a (e - 1)
  else e

(* The end of the token from [a] on, and in [st.vend] the end of its
   value: less the blanks that end the line's last token. *)
let token st a =
  let e = token_end st.text st.len a in
  st.vend <-
    (if at_end st (skip_seps st.text st.len e) then trim_end st.text a e
     else e);
  e

(* The 8 bytes of [s] at [i] as a little-endian int64, unchecked: the
   caller has checked [i + 8 <= Bytes.length s] *)
external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] word64 s i =
  if Sys.big_endian then swap64 (get64u s i) else get64u s i

(* The 7 bytes of [s] at [i] as one int, the first in the low byte,
   unchecked as [word64] *)
let[@inline] word7 s i = Int64.to_int (word64 s i) land 0xFF_FFFF_FFFF_FFFF

(* A table of names of at most 21 bytes, looked up by their first
   bytes: the shortest prefix of them that tells the names apart, masked
   by [pmask], is hashed by [mult] into [slot], a row or -1.  Row i's
   name is the bytes [7k, 7k + 7) for k < 3, each as [word7] reads it
   under its mask: [words.(3i + k)] and [masks.(3i + k)].  A match is
   then three compares, whatever the name. *)
type table = {
  words : int array;
  masks : int array;
  lens : int array;
  pmask : int;
  mult : int;
  slot : int array;
}

let slot_bits = 6
let[@inline] slot_of t w = ((w land t.pmask) * t.mult) lsr (63 - slot_bits)

(* the mask of the first [n] bytes of a word, n clamped to [0, 7] *)
let byte_mask n = (1 lsl (8 * Int.max 0 (Int.min 7 n))) - 1

let table names =
  let lens = Array.map String.length names in
  assert (Array.for_all (fun n -> n >= 1 && n <= 21) lens);
  let part f =
    Array.init (3 * Array.length names) (fun j ->
        let s = names.(j / 3) and k = 7 * (j mod 3) in
        f s k (byte_mask (String.length s - k)))
  in
  let masks = part (fun _ _ m -> m) in
  (* each name zero-padded, so that its words can be read whole *)
  let words =
    part (fun s k m ->
        word7 (Bytes.of_string (s ^ String.make 22 '\000')) k land m)
  in
  let heads = Array.init (Array.length names) (fun i -> words.(3 * i)) in
  let distinct f =
    let xs = Array.to_list (Array.map f heads) in
    List.length (List.sort_uniq compare xs) = List.length xs
  in
  (* else no prefix tells the names apart, and no [mult] either *)
  assert (distinct Fun.id);
  let rec prefix p =
    if
      p >= Array.fold_left Int.min 7 lens
      || distinct (fun w -> w land byte_mask p)
    then p
    else prefix (p + 1)
  in
  let rec search t =
    if distinct (slot_of t) then t else search { t with mult = t.mult + 2 }
  in
  let t =
    search
      { words; masks; lens; pmask = byte_mask (prefix 1);
        mult = 0x9E3779B97F4A7C1; slot = Array.make (1 lsl slot_bits) (-1) }
  in
  Array.iteri (fun i w -> t.slot.(slot_of t w) <- i) heads;
  t

(* The row of [t] whose name starts the text at [a], and stands as a
   whole token there if [whole]; -1 if none.  [name_in] reads the 22
   bytes from [a] unchecked, so within 22 bytes of the text's end a
   zero-padded copy of the rest stands in: no name holds a 0 byte. *)
let name_in t whole text len a =
  let w = word7 text a in
  let i = Array.unsafe_get t.slot (slot_of t w) in
  if
    i >= 0
    && w land Array.unsafe_get t.masks (3 * i) = Array.unsafe_get t.words (3 * i)
    && word7 text (a + 7) land Array.unsafe_get t.masks ((3 * i) + 1)
       = Array.unsafe_get t.words ((3 * i) + 1)
    && word7 text (a + 14) land Array.unsafe_get t.masks ((3 * i) + 2)
       = Array.unsafe_get t.words ((3 * i) + 2)
    && ((not whole) || ends_token text len (a + Array.unsafe_get t.lens i))
  then i
  else -1

let name_at t ~whole text len a =
  if a + 22 <= len then name_in t whole text len a
  else
    let padded = Bytes.make (len - a + 22) '\000' in
    Bytes.blit text a padded 0 (len - a);
    name_in t whole padded (len - a) 0

(* the digits of [line] on [i, b) as an int, or -1 at a non-digit *)
let rec decimal line i b acc =
  if i = b then acc
  else
    match Bytes.unsafe_get line i with
    | '0' .. '9' as c -> decimal line (i + 1) b ((10 * acc) + Char.code c - 48)
    | _ -> -1

let int_of st key a b =
  (* 18 digits stay below max_int *)
  let plain = if b > a && b - a <= 18 then decimal st.text a b 0 else -1 in
  if plain >= 0 then plain
  else
    let v = span st a b in
    match int_of_string v with
    | i -> i
    | exception Failure _ ->
        fail st (Printf.sprintf "%s=%s is not an integer" key v)

let[@inline] is_digit c = c >= '0' && c <= '9'

let rec digits_end text len i =
  if i < len && is_digit (Bytes.unsafe_get text i) then
    digits_end text len (i + 1)
  else i

(* The int at [a] into st.ints.(slot); the token's end *)
let int_token st key a slot =
  let j = digits_end st.text st.len a in
  if j > a && j - a <= 18 && ends_token st.text st.len j then begin
    st.ints.(slot) <- decimal st.text a j 0;
    j
  end
  else
    let e = token st a in
    st.ints.(slot) <- int_of st key a st.vend;
    e

(* 10^k for k = 0 .. 22, each exact in a float *)
let powers_of_ten =
  Array.init 23 (fun k -> float_of_string ("1e" ^ string_of_int k))

(* The plain decimal w / 10^k on [a, j) (DIGITS or DIGITS.DIGITS, w an
   int below 10^18, k <= 22 digits after the point) as the float nearest
   it, which is what [float_of_string] returns, into [dst.(slot)]; [j],
   or -1 for any other span and when the rounding is too close to call.
   When w is exact in a float, one division rounds w / 10^k correctly.
   Else w = hi + lo exactly, q = hi / 10^k rounded, and the fma gives
   the division's exact remainder, so w / 10^k = q + c up to c's last
   bits; r = q + c rounded is the answer when x - r (s, up to [slack],
   q's ulp / 2^48) lies strictly inside r's rounding interval, whose
   ends are halfway to r's neighbours: ulp r / 2 above, and below too
   unless r is a power of two, where the gap below is half as wide. *)

(* The unit in the first place of x > 0 (the power of two in
   [x / 2, x]), exact for x below 2^970 (Rump, Ogita and Oishi 2008,
   "Accurate floating-point summation", ufp): float products only, no
   C call to read the bits.  An ulp is ufp x / 2^52. *)
let[@inline] ufp x =
  let q = x *. 0x1.0000000000001p52 in
  Float.abs (q -. (0x1.fffffffffffffp-1 *. q))

let float_of_digits a j w k dst slot =
  if j = a || k = 0 || k > 22 then -1
  else
    let d = powers_of_ten.(if k < 0 then 0 else k) in
    if w <= 1 lsl 53 then begin
      dst.(slot) <- float_of_int w /. d;
      j
    end
    else
      let hi = float_of_int w in
      let lo = float_of_int (w - int_of_float hi) in
      let q = hi /. d in
      let c = (Float.fma (-.q) d hi +. lo) /. d in
      let r = q +. c in
      let s = q -. r +. c in
      let slack = ufp q *. 0x1p-100 and u = ufp r in
      let above = u *. 0x1p-53 in
      let below = if u = r then above *. 0.5 else above in
      if s > -.below +. slack && s < above -. slack then begin
        dst.(slot) <- r;
        j
      end
      else -1

(* The eight bytes of [line] at [i] as the int they spell when they
   are all decimal digits, else -1: the digit test and the conversion of
   all eight at once, in three multiplies *)
let digits8 line len i =
  if i + 8 > len then -1
  else
    let v = word64 line i in
    let open Int64 in
    let high = 0xF0F0F0F0F0F0F0F0L in
    if
      logor (logand v high)
        (shift_right_logical (logand (add v 0x0606060606060606L) high) 4)
      <> 0x3333333333333333L
    then -1
    else
      let v = shift_right_logical (mul (logand v 0x0F0F0F0F0F0F0F0FL) 2561L) 8 in
      let v =
        shift_right_logical (mul (logand v 0x00FF00FF00FF00FFL) 6553601L) 16
      in
      to_int
        (shift_right_logical
           (mul (logand v 0x0000FFFF0000FFFFL) 42949672960001L)
           32)

(* The plain decimal from [a] on, read up to the first character that is
   neither a digit nor its first point; [k] counts the digits after the
   point, -1 before it.  Eight digits at a time while [w] stays below
   10^17 after them, as it does one digit at a time. *)
let rec plain_float line len a i w k dst slot =
  let c = if i < len then Bytes.unsafe_get line i else ' ' in
  if is_digit c then
    let d = if w < 1_000_000_000 then digits8 line len i else -1 in
    if d >= 0 then
      plain_float line len a (i + 8)
        ((100_000_000 * w) + d)
        (if k < 0 then k else k + 8)
        dst slot
    else if w < 100_000_000_000_000_000 then
      plain_float line len a (i + 1)
        ((10 * w) + Char.code c - 48)
        (if k < 0 then k else k + 1)
        dst slot
    else -1
  else if c = '.' && k < 0 && i > a then
    plain_float line len a (i + 1) w 0 dst slot
  else float_of_digits a i w k dst slot

(* the number on [a, b) into st.r.(slot) *)
let float_of st key a b slot =
  if plain_float st.text st.len a a 0 (-1) st.r slot <> b then
    let v = span st a b in
    match float_of_string v with
    | x -> st.r.(slot) <- x
    | exception Failure _ ->
        fail st (Printf.sprintf "%s=%s is not a number" key v)

(* The number at [a] into st.r.(slot); the token's end *)
let float_token st key a slot =
  let j = plain_float st.text st.len a a 0 (-1) st.r slot in
  if j >= 0 && ends_token st.text st.len j then j
  else
    let e = token st a in
    float_of st key a st.vend slot;
    e

(* the sweep size check, against the whole token, before the grid is
   allocated *)
let check_size st tok b k =
  if k > Engine.Query.max_points then
    fail st
      (Printf.sprintf "%s: more than %d points" (span st tok b)
         Engine.Query.max_points)

let presets = Array.of_list Zeroconf.Params.presets
let preset_names = table (Array.map fst presets)

(* the presets' interned ids, by row *)
let preset_ids = Array.map (fun (_, p) -> Engine.Plan.scenario_id p) presets

(* the default scenario's row *)
let figure2 =
  let rec find i =
    if snd presets.(i) == Zeroconf.Params.figure2 then i else find (i + 1)
  in
  find 0

(* The canonical quantity names, matched in place; any other name (an
   alias such as [cost]) goes through [Query.quantity_of_name]. *)
let quantities =
  Array.map
    (fun q -> (Engine.Query.quantity_name q, q))
    Engine.Query.
      [| Mean_cost; Error_probability; Log10_error; Cost_variance;
         Latency_mean |]

let quantity_names = table (Array.map fst quantities)

(* Setters: [set_K st tok a] reads the value at [a] of the token at
   [tok] and returns the token's end. *)

let set_scenario st _ a =
  match name_at preset_names ~whole:true st.text st.len a with
  | -1 ->
      let e = token st a in
      let name = span st a st.vend in
      st.preset <- Array.length presets - 1;
      while st.preset >= 0 && fst presets.(st.preset) <> name do
        st.preset <- st.preset - 1
      done;
      if st.preset < 0 then fail st (Printf.sprintf "unknown scenario %s" name);
      e
  | i ->
      st.preset <- i;
      a + String.length (fst presets.(i))

let set_ns st tok a =
  let e = token st a in
  let line = st.text and b = st.vend in
  let c = index_from line a b ':' in
  if c < 0 || index_from line (c + 1) b ':' >= 0 then
    fail st "ns expects LO:HI";
  let lo = int_of st "ns" a c in
  let hi = int_of st "ns" (c + 1) b in
  if hi < lo then fail st "ns range is empty";
  (* past max_int, hi - lo + 1 wraps to a negative int *)
  let size = hi - lo + 1 in
  check_size st tok b (if size > 0 then size else max_int);
  st.ns_lo <- lo;
  st.ns_hi <- hi;
  e

let set_rs st tok a =
  let e = token st a in
  let line = st.text and b = st.vend in
  let c1 = index_from line a b ':' in
  let c2 = if c1 < 0 then -1 else index_from line (c1 + 1) b ':' in
  if c2 < 0 || index_from line (c2 + 1) b ':' >= 0 then
    fail st "rs expects LO:HI:POINTS";
  let points = int_of st "rs" (c2 + 1) b in
  check_size st tok b points;
  (* HI is read before LO, so a line with both malformed names HI *)
  float_of st "rs" (c1 + 1) c2 2;
  float_of st "rs" a c1 1;
  match Numerics.Grid.linspace st.r.(1) st.r.(2) points with
  | rs ->
      st.rs <- rs;
      e
  | exception Invalid_argument msg -> fail st msg

let set_backend st _ a =
  let e = token st a in
  st.backend <- Some (String.lowercase_ascii (span st a st.vend));
  e

type key = {
  name : string;
  excludes : int;  (* the row this key cannot go with, or -1 *)
  sampling : bool;  (* only meaningful with backend=mc *)
}

(* The exclusion checks run in row order, so a line with several
   conflicts reports (ns, rs) first, then (n, ns), then (r, rs).  A
   row's setter is picked by [set] below. *)
let keys =
  let row ?(excludes = -1) ?(sampling = false) name =
    { name; excludes; sampling }
  in
  [| row "ns" ~excludes:3 (* rs *);
     row "n" ~excludes:0 (* ns *);
     row "r" ~excludes:3 (* rs *);
     row "rs";
     row "scenario";
     row "backend";
     row "trials" ~sampling:true;
     row "seed" ~sampling:true |]

let ns_key = 0 and n_key = 1 and r_key = 2 and rs_key = 3

(* row k's setter, picked by a match: a direct call, not a closure's *)
let set st k tok a =
  match k with
  | 0 -> set_ns st tok a
  | 1 -> int_token st "n" a 0
  | 2 -> float_token st "r" a 0
  | 3 -> set_rs st tok a
  | 4 -> set_scenario st tok a
  | 5 -> set_backend st tok a
  | 6 -> int_token st "trials" a 1
  | _ -> int_token st "seed" a 2

let mask p =
  let mask = ref 0 in
  Array.iteri (fun k row -> if p k row then mask := !mask lor (1 lsl k)) keys;
  !mask

let sampling_mask = mask (fun _ row -> row.sampling)

(* the rows some key excludes: a line without one has no conflict *)
let excluded_mask =
  mask (fun k _ -> Array.exists (fun row -> row.excludes = k) keys)

(* each key's name and its '=': a name holds no blank or delimiter, so
   the '=' is then the token's first *)
let key_names = table (Array.map (fun row -> row.name ^ "=") keys)

(* The row of the key at [tok], or -1: the one-letter keys of every
   point line, n= and r=, told by their two bytes, any other looked up
   in [key_names] *)
let key_at st tok =
  let line = st.text in
  if tok + 1 < st.len && Bytes.unsafe_get line (tok + 1) = '=' then
    match Bytes.unsafe_get line tok with
    | 'n' -> n_key
    | 'r' -> r_key
    | _ -> name_at key_names ~whole:false line st.len tok
  else name_at key_names ~whole:false line st.len tok

(* One key=value token from [tok] on; its end *)
let parse_token st tok =
  let line = st.text in
  let k = key_at st tok in
  if k < 0 then begin
    ignore (token st tok);
    let eq = index_from line tok st.vend '=' in
    if eq < 0 then
      fail st
        (Printf.sprintf "expected key=value, got %s" (span st tok st.vend));
    fail st (Printf.sprintf "unknown key %s" (span st tok eq))
  end;
  let bit = 1 lsl k in
  if st.given land bit <> 0 then
    fail st (Printf.sprintf "key %s given twice" keys.(k).name);
  st.given <- st.given lor bit;
  set st k tok (tok + String.length keys.(k).name + 1)

(* The tokens from [tok] on, which starts one, up to the one after which
   only blanks and a comment are left. *)
let rec parse_tokens st tok =
  let next = skip_seps st.text st.len (parse_token st tok) in
  if more st next || not (at_end st next) then parse_tokens st next

let sampled st = match st.backend with Some "mc" -> true | _ -> false

(* A key that would be ignored is an error, not a silent default. *)
let check_keys st =
  if st.given land excluded_mask <> 0 then
    for k = 0 to Array.length keys - 1 do
      let x = keys.(k).excludes in
      if
        x >= 0 && st.given land (1 lsl k) <> 0 && st.given land (1 lsl x) <> 0
      then
        fail st
          (Printf.sprintf "%s and %s are mutually exclusive" keys.(k).name
             keys.(x).name)
    done;
  if st.given land sampling_mask <> 0 && not (sampled st) then
    fail st "trials and seed need backend=mc"

let has st k = st.given land (1 lsl k) <> 0

(* The line's query, not yet validated: built only to check a single
   line ([parse_line]) and for the planner's refusals. *)
let query st =
  let accuracy =
    if sampled st then
      Engine.Query.Sampled { trials = st.ints.(1); seed = st.ints.(2) }
    else Engine.Query.Exact
  and domain =
    if has st ns_key then
      Engine.Query.N_sweep
        { ns = Array.init (st.ns_hi - st.ns_lo + 1) (fun i -> st.ns_lo + i);
          r = st.r.(0) }
    else if has st rs_key then
      Engine.Query.R_sweep { n = st.ints.(0); rs = st.rs }
    else Engine.Query.Point { n = st.ints.(0); r = st.r.(0) }
  in
  { Engine.Query.quantity = st.quantity; scenario = snd presets.(st.preset);
    domain;
    accuracy }

let fresh text len =
  { text; len; stop = 0; vend = 0; lineno = 0;
    quantity = Engine.Query.Mean_cost; given = 0;
    preset = figure2; ints = [| 4; 0; 0 |];
    r = [| 2.; 0.; 0. |]; ns_lo = 0; ns_hi = 0; rs = [||]; backend = None }

(* [st] set to the settings of the line from [a0] on, or [false] for a
   blank or comment-only line; [st.stop] is the line's end either
   way *)
let parse st lineno a0 =
  let text = st.text and len = st.len in
  let a = skip_blanks text len a0 in
  (more st a || not (at_end st a))
  && begin
       st.lineno <- lineno;
       let e =
         match name_at quantity_names ~whole:true text len a with
         | -1 -> (
             let e = token st a in
             let name = span st a st.vend in
             match Engine.Query.quantity_of_name name with
             | Some q ->
                 st.quantity <- q;
                 e
             | None -> fail st (Printf.sprintf "unknown quantity %s" name))
         | i ->
             st.quantity <- snd quantities.(i);
             a + String.length (fst quantities.(i))
       in
       st.given <- 0;
       st.preset <- figure2;
       st.ints.(0) <- 4;
       st.ints.(1) <- Engine.Crosscheck.default_trials;
       st.ints.(2) <- Engine.Crosscheck.default_seed;
       st.r.(0) <- 2.;
       (* left alone when unchanged: no write barrier *)
       if Option.is_some st.backend then st.backend <- None;
       let next = skip_seps text len e in
       if more st next || not (at_end st next) then parse_tokens st next;
       check_keys st;
       true
     end

(* the parser never writes to [st.text], so a string can stand in for
   its bytes *)
let of_string text = fresh (Bytes.unsafe_of_string text) (String.length text)

let parse_line lineno line =
  let st = of_string line in
  if not (parse st lineno 0) then None
  else
    let q = query st in
    match Engine.Query.validate q with
    | () -> Some (q, st.backend)
    | exception Invalid_argument msg -> fail st msg

(* the planner's refusal of the line, with its message *)
let refuse st =
  match Engine.Planner.plan ?backend:st.backend (query st) with
  | _ -> assert false (* the planner routes as [add] does *)
  | exception (Engine.Planner.Unsupported msg | Invalid_argument msg) ->
      fail st msg

(* The line's plan and points appended to [b], routed and validated as
   [Engine.Planner.plan] does: a forced backend is checked before the
   points, the cheapest route after them. *)
let add st (b : Engine.Batch.t) =
  let sampled = sampled st
  and max_n = if has st ns_key then st.ns_hi else st.ints.(0) in
  let route =
    match st.backend with
    | None -> Engine.Planner.route st.quantity ~sampled ~max_n
    | Some name -> (
        match Engine.Plan.route_of_name name with
        | Some r as route
          when Engine.Planner.serves r st.quantity ~sampled ~max_n ->
            route
        | _ -> refuse st)
  in
  let scenario = snd presets.(st.preset)
  and sid = preset_ids.(st.preset)
  (* a stand-in when no route serves: the refusal comes after the
     points' checks *)
  and planned = match route with Some r -> r | None -> Engine.Plan.Kernel
  and trials = if sampled then st.ints.(1) else 0
  and seed = if sampled then st.ints.(2) else 0 in
  (try
     if has st rs_key then begin
       Engine.Batch.add_plan b st.quantity sid planned ~trials ~seed
         ~line:st.lineno;
       for i = 0 to Array.length st.rs - 1 do
         Engine.Batch.add_run b ~lo:st.ints.(0) ~hi:st.ints.(0) st.rs i
       done;
       Engine.Batch.validate_last b scenario ~sampled
     end
     else
       (* a point or an n-sweep: one run, appended and validated in one
          call *)
       let lo = if has st ns_key then st.ns_lo else st.ints.(0)
       and hi = if has st ns_key then st.ns_hi else st.ints.(0) in
       Engine.Batch.add_plan_with_run b st.quantity sid planned ~trials ~seed
         ~line:st.lineno ~lo ~hi st.r 0 scenario ~sampled
   with Invalid_argument msg -> fail st msg);
  if Option.is_none route then refuse st

(* Room for a plan and a run per 60 bytes: the benchmark's point and
   n-sweep lines are longer, so they never make the batch grow; an rs=
   line adds a run per grid value. *)
let batch_for bytes = Engine.Batch.create ~plans:(bytes / 60) ~runs:(bytes / 60)

(* The lines of [st.text] that start on [a, last] into [b], numbered
   from [lineno]; the number of the next line.  Each of them ends by
   [last]: at its '\n', or at [st.len] when [last] is [st.len]. *)
let rec lines st b lineno a last =
  if a > last then lineno
  else begin
    if parse st lineno a then add st b;
    lines st b (lineno + 1) (st.stop + 1) last
  end

(* the span after the last '\n' (empty when the text ends in one) is a
   line too *)
let read text =
  let st = of_string text and b = batch_for (String.length text) in
  ignore (lines st b 1 0 st.len : int);
  b

let chunk_bytes = 65_536

(* [want] bytes of [ic] into [buf] at [pos], fewer only at the end of
   the input; how many *)
let rec fill ic buf pos want got =
  if got = want then got
  else
    match In_channel.input ic buf (pos + got) (want - got) with
    | 0 -> got
    | k -> fill ic buf pos want (got + k)

let rec last_newline text i stop =
  if i < stop then -1
  else if Bytes.unsafe_get text i = '\n' then i
  else last_newline text (i - 1) stop

(* The chunk loop: [st.text] holds, on [0, used), the start of line
   [lineno], which no '\n' ends yet. *)
let rec read_chunks ic st b lineno used =
  if used = Bytes.length st.text then begin
    (* a line longer than the buffer: double it *)
    let text = Bytes.create (2 * used) in
    Bytes.blit st.text 0 text 0 used;
    st.text <- text
  end;
  let got =
    fill ic st.text used (Int.min chunk_bytes (Bytes.length st.text - used)) 0
  in
  st.len <- used + got;
  if got = 0 then begin
    (* the end of the input: what is left is the last line *)
    if parse st lineno 0 then add st b;
    b
  end
  else
    let last = last_newline st.text (st.len - 1) used in
    if last < 0 then read_chunks ic st b lineno st.len
    else begin
      let lineno = lines st b lineno 0 last in
      let rest = st.len - last - 1 in
      Bytes.blit st.text (last + 1) st.text 0 rest;
      read_chunks ic st b lineno rest
    end

(* A pipe has no length, and a file of length 0 may still hold bytes
   (procfs): both are sized as 64 KiB. *)
let read_channel ic =
  let size =
    match In_channel.length ic with
    | len -> Int64.to_int (Int64.sub len (In_channel.pos ic))
    | exception Sys_error _ -> 0
  in
  let size = if size <= 0 then chunk_bytes else size in
  read_chunks ic
    (fresh (Bytes.create (Int.min chunk_bytes size)) 0)
    (batch_for size) 1 0
