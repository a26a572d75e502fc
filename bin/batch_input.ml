(* The [zeroconf_cli batch] front end: read, parse and plan one query
   line at a time, in one pass over each line's bytes.

   A line is found by spans, not by splitting: tokens separated by ' '
   or '\t' up to the first '#', without the blanks [String.trim] would
   cut from either end, each cut at its first '=' into a key span and a
   value span.  A token is scanned once: the key is matched against a
   static table in place, as a name followed by '='.  A plain decimal
   int or float is read in place; any other number span becomes a
   string for [int_of_string] or [float_of_string], which keep their
   liberal syntax (0x10, 1_000, hex floats).  Every message is the one
   the list-based parser gave, with the same precedence inside a
   line. *)

(* One line's settings, filled in by the key table's setters. *)
type state = {
  lineno : int;
  line : string;
  quantity : Engine.Query.quantity;
  mutable given : int;  (* bit k: keys.(k) appeared on the line *)
  mutable scenario : Zeroconf.Params.t;
  mutable n : int;
  mutable r : float;
  mutable ns : int array option;
  mutable rs : float array option;
  mutable backend : string option;
  mutable trials : int;
  mutable seed : int;
}

let fail_at lineno msg = failwith (Printf.sprintf "line %d: %s" lineno msg)
let fail st msg = fail_at st.lineno msg
let span st a b = String.sub st.line a (b - a)

(* The helpers below are top-level functions with every variable passed
   in, so the per-token path allocates no closure. *)

let rec index_from line i stop c =
  if i >= stop then -1
  else if String.unsafe_get line i = c then i
  else index_from line (i + 1) stop c

let is_sep c = c = ' ' || c = '\t'

(* String.trim's character set *)
let is_blank c = is_sep c || c = '\n' || c = '\r' || c = '\012'

(* The scans below take the line's length [len] as an argument. *)

let rec skip_seps line len i =
  if i < len && is_sep (String.unsafe_get line i) then
    skip_seps line len (i + 1)
  else i

let rec skip_blanks line len i =
  if i < len && is_blank (String.unsafe_get line i) then
    skip_blanks line len (i + 1)
  else i

(* nothing but blanks and a comment from [i] on *)
let at_end line len i =
  let j = skip_blanks line len i in
  j = len || String.unsafe_get line j = '#'

(* the first ' ', '\t' or '#' from [i] on, or [len] *)
let rec token_end line len i =
  if i < len then
    match String.unsafe_get line i with
    | ' ' | '\t' | '#' -> i
    | _ -> token_end line len (i + 1)
  else i

(* [e] without the blanks that end the line's last token *)
let rec trim_end line a e =
  if e > a && is_blank (String.unsafe_get line (e - 1)) then
    trim_end line a (e - 1)
  else e

(* [line] from [a] holds [name] *)
let rec span_is line a name i =
  i >= String.length name
  || String.unsafe_get line (a + i) = String.unsafe_get name i
     && span_is line a name (i + 1)

let span_equal line a b name =
  b - a = String.length name && span_is line a name 0

(* the digits of [line] on [i, b) as an int, or -1 at a non-digit *)
let rec decimal line i b acc =
  if i = b then acc
  else
    match String.unsafe_get line i with
    | '0' .. '9' as c -> decimal line (i + 1) b ((10 * acc) + Char.code c - 48)
    | _ -> -1

let int_of st key a b =
  (* 18 digits stay below max_int *)
  let plain = if b > a && b - a <= 18 then decimal st.line a b 0 else -1 in
  if plain >= 0 then plain
  else
    let v = span st a b in
    match int_of_string v with
    | i -> i
    | exception Failure _ ->
        fail st (Printf.sprintf "%s=%s is not an integer" key v)

(* 10^k for k = 0 .. 22, each exact in a float *)
let powers_of_ten =
  Array.init 23 (fun k -> float_of_string ("1e" ^ string_of_int k))

(* A plain decimal on [a, b) (DIGITS or DIGITS.DIGITS, its digits an
   int w below 10^18, k of them after the point, k <= 22) as the float
   nearest w / 10^k, which is what [float_of_string] returns; NaN for
   any other span, and when the rounding is too close to call.  When w
   is exact in a float, one division rounds w / 10^k correctly.  Else
   w = hi + lo exactly, q = hi / 10^k rounded, and the fma gives the
   division's exact remainder, so w / 10^k = q + c up to c's last bits;
   r = q + c rounded is the answer when x - r (s, up to [slack]) lies
   strictly inside r's rounding interval. *)
let plain_float line a b =
  let w = ref 0 and k = ref (-1) and ok = ref (b > a) and i = ref a in
  while !ok && !i < b do
    (match String.unsafe_get line !i with
    | '0' .. '9' as c when !w < 100_000_000_000_000_000 ->
        w := (10 * !w) + Char.code c - 48;
        if !k >= 0 then incr k
    | '.' when !k < 0 && !i > a && !i < b - 1 -> k := 0
    | _ -> ok := false);
    incr i
  done;
  if not !ok || !k > 22 then Float.nan
  else
    let w = !w and d = powers_of_ten.(max 0 !k) in
    if w <= 1 lsl 53 then float_of_int w /. d
    else
      let hi = float_of_int w in
      let lo = float_of_int (w - int_of_float hi) in
      let q = hi /. d in
      let c = (Float.fma (-.q) d hi +. lo) /. d in
      let r = q +. c in
      let s = q -. r +. c in
      let slack = (Float.succ q -. q) *. 0x1p-48 in
      if s > ((Float.pred r -. r) *. 0.5) +. slack
         && s < ((Float.succ r -. r) *. 0.5) -. slack
      then r
      else Float.nan

let float_of st key a b =
  let x = plain_float st.line a b in
  if not (Float.is_nan x) then x
  else
    let v = span st a b in
    match float_of_string v with
    | x -> x
    | exception Failure _ ->
        fail st (Printf.sprintf "%s=%s is not a number" key v)

(* the sweep size check, against the whole token, before the grid is
   allocated *)
let check_size st tok b k =
  if k > Engine.Query.max_points then
    fail st
      (Printf.sprintf "%s: more than %d points" (span st tok b)
         Engine.Query.max_points)

let presets = Array.of_list Zeroconf.Params.presets

let rec find_preset line a b i =
  if i = Array.length presets then -1
  else if span_equal line a b (fst presets.(i)) then i
  else find_preset line a b (i + 1)

(* The canonical quantity names, matched in place; any other name (an
   alias such as [cost]) goes through [Query.quantity_of_name]. *)
let quantities =
  Array.map
    (fun q -> (Engine.Query.quantity_name q, q))
    Engine.Query.
      [| Mean_cost; Error_probability; Log10_error; Cost_variance;
         Latency_mean |]

let rec find_quantity line a b i =
  if i = Array.length quantities then -1
  else if span_equal line a b (fst quantities.(i)) then i
  else find_quantity line a b (i + 1)

(* Setters: [set st tok a b] reads the value span [a, b) of the token
   starting at [tok]. *)

let set_scenario st _ a b =
  match find_preset st.line a b 0 with
  | -1 -> fail st (Printf.sprintf "unknown scenario %s" (span st a b))
  | i -> st.scenario <- snd presets.(i)

let set_n st _ a b = st.n <- int_of st "n" a b
let set_r st _ a b = st.r <- float_of st "r" a b

let set_ns st tok a b =
  let line = st.line in
  let c = index_from line a b ':' in
  if c < 0 || index_from line (c + 1) b ':' >= 0 then
    fail st "ns expects LO:HI";
  let lo = int_of st "ns" a c in
  let hi = int_of st "ns" (c + 1) b in
  if hi < lo then fail st "ns range is empty";
  (* past max_int, hi - lo + 1 wraps to a negative int *)
  let size = hi - lo + 1 in
  check_size st tok b (if size > 0 then size else max_int);
  st.ns <- Some (Array.init size (fun i -> lo + i))

let set_rs st tok a b =
  let line = st.line in
  let c1 = index_from line a b ':' in
  let c2 = if c1 < 0 then -1 else index_from line (c1 + 1) b ':' in
  if c2 < 0 || index_from line (c2 + 1) b ':' >= 0 then
    fail st "rs expects LO:HI:POINTS";
  let points = int_of st "rs" (c2 + 1) b in
  check_size st tok b points;
  (* HI is read before LO, so a line with both malformed names HI *)
  let hi = float_of st "rs" (c1 + 1) c2 in
  let lo = float_of st "rs" a c1 in
  match Numerics.Grid.linspace lo hi points with
  | rs -> st.rs <- Some rs
  | exception Invalid_argument msg -> fail st msg

let set_backend st _ a b =
  st.backend <- Some (String.lowercase_ascii (span st a b))

let set_trials st _ a b = st.trials <- int_of st "trials" a b
let set_seed st _ a b = st.seed <- int_of st "seed" a b

type key = {
  name : string;
  set : state -> int -> int -> int -> unit;
  excludes : int;  (* the row this key cannot go with, or -1 *)
  sampling : bool;  (* only meaningful with backend=mc *)
}

(* The exclusion checks run in row order, so a line with several
   conflicts reports (ns, rs) first, then (n, ns), then (r, rs). *)
let keys =
  let row ?(excludes = -1) ?(sampling = false) name set =
    { name; set; excludes; sampling }
  in
  [| row "ns" set_ns ~excludes:3 (* rs *);
     row "n" set_n ~excludes:0 (* ns *);
     row "r" set_r ~excludes:3 (* rs *);
     row "rs" set_rs;
     row "scenario" set_scenario;
     row "backend" set_backend;
     row "trials" set_trials ~sampling:true;
     row "seed" set_seed ~sampling:true |]

let sampling_mask =
  let mask = ref 0 in
  Array.iteri
    (fun k row -> if row.sampling then mask := !mask lor (1 lsl k))
    keys;
  !mask

(* the key whose name and a '=' start the token [tok, stop): the '='
   is then the token's first *)
let rec find_key line tok stop k =
  if k = Array.length keys then -1
  else
    let name = keys.(k).name in
    let eq = tok + String.length name in
    if eq < stop && String.unsafe_get line eq = '=' && span_is line tok name 0
    then k
    else find_key line tok stop (k + 1)

(* One key=value token on [tok, stop) *)
let parse_token st tok stop =
  let line = st.line in
  let k = find_key line tok stop 0 in
  if k < 0 then begin
    let eq = index_from line tok stop '=' in
    if eq < 0 then
      fail st (Printf.sprintf "expected key=value, got %s" (span st tok stop));
    fail st (Printf.sprintf "unknown key %s" (span st tok eq))
  end;
  let bit = 1 lsl k in
  if st.given land bit <> 0 then
    fail st (Printf.sprintf "key %s given twice" keys.(k).name);
  st.given <- st.given lor bit;
  keys.(k).set st tok (tok + String.length keys.(k).name + 1) stop

(* The tokens from [tok] on, which starts one; the last token is the one
   after which only blanks and a comment are left. *)
let rec parse_tokens st len tok =
  let line = st.line in
  let e = token_end line len tok in
  let next = skip_seps line len e in
  if at_end line len next then parse_token st tok (trim_end line tok e)
  else begin
    parse_token st tok e;
    parse_tokens st len next
  end

(* A key that would be ignored is an error, not a silent default. *)
let check_keys st =
  for k = 0 to Array.length keys - 1 do
    let x = keys.(k).excludes in
    if x >= 0 && st.given land (1 lsl k) <> 0 && st.given land (1 lsl x) <> 0
    then
      fail st
        (Printf.sprintf "%s and %s are mutually exclusive" keys.(k).name
           keys.(x).name)
  done;
  if st.given land sampling_mask <> 0 then
    match st.backend with
    | Some "mc" -> ()
    | _ -> fail st "trials and seed need backend=mc"

(* The line's query, not yet validated: [parse_line] validates it, and
   [plans] leaves that to the planner, which validates before it
   routes. *)
let query st =
  let accuracy =
    match st.backend with
    | Some "mc" -> Engine.Query.Sampled { trials = st.trials; seed = st.seed }
    | _ -> Engine.Query.Exact
  and domain =
    match (st.ns, st.rs) with
    | Some ns, _ -> Engine.Query.N_sweep { ns; r = st.r }
    | None, Some rs -> Engine.Query.R_sweep { n = st.n; rs }
    | None, None -> Engine.Query.Point { n = st.n; r = st.r }
  in
  { Engine.Query.quantity = st.quantity; scenario = st.scenario; domain;
    accuracy }

(* The settings of a line, or [None] for a blank or comment-only line *)
let parse lineno line =
  let len = String.length line in
  let a = skip_blanks line len 0 in
  if at_end line len a then None
  else begin
    let e = token_end line len a in
    let next = skip_seps line len e in
    let last = at_end line len next in
    let e = if last then trim_end line a e else e in
    let quantity =
      match find_quantity line a e 0 with
      | -1 -> (
          let qname = String.sub line a (e - a) in
          match Engine.Query.quantity_of_name qname with
          | Some q -> q
          | None -> fail_at lineno (Printf.sprintf "unknown quantity %s" qname))
      | i -> snd quantities.(i)
    in
    let st =
      { lineno; line; quantity; given = 0; scenario = Zeroconf.Params.figure2;
        n = 4; r = 2.; ns = None; rs = None; backend = None;
        trials = Engine.Crosscheck.default_trials;
        seed = Engine.Crosscheck.default_seed }
    in
    if not last then parse_tokens st len next;
    check_keys st;
    Some st
  end

let parse_line lineno line =
  match parse lineno line with
  | None -> None
  | Some st -> (
      let q = query st in
      match Engine.Query.validate q with
      | () -> Some (q, st.backend)
      | exception Invalid_argument msg -> fail st msg)

let plan_line lineno line =
  match parse lineno line with
  | None -> None
  | Some st -> (
      match Engine.Planner.plan ?backend:st.backend (query st) with
      | plan -> Some plan
      | exception (Engine.Planner.Unsupported msg | Invalid_argument msg) ->
          fail_at lineno msg)

(* The plan array doubles as it fills; the first plan pads the slack. *)
let plans next_line =
  let acc = ref [||] and len = ref 0 and lineno = ref 0 in
  let rec loop () =
    match next_line () with
    | None -> ()
    | Some line ->
        incr lineno;
        (match plan_line !lineno line with
        | None -> ()
        | Some plan ->
            if !len = Array.length !acc then begin
              let grown = Array.make (max 64 (2 * !len)) plan in
              Array.blit !acc 0 grown 0 !len;
              acc := grown
            end;
            !acc.(!len) <- plan;
            incr len);
        loop ()
  in
  loop ();
  Array.sub !acc 0 !len
