(* The [zeroconf_cli batch] front end: read, parse and plan one query
   line at a time, in one pass over each line's bytes.

   A line is found by spans, not by splitting: the comment cut, the
   bounds [String.trim] would leave, then tokens separated by ' ' or
   '\t', each cut at its first '=' into a key span and a value span.
   Keys dispatch through a static table; only the value spans that
   hold numbers become strings, for [int_of_string] and
   [float_of_string], which keep their liberal syntax (0x10, 1_000,
   hex floats).  Every message is the one the list-based parser gave,
   with the same precedence inside a line. *)

(* One line's settings, filled in by the key table's setters. *)
type state = {
  lineno : int;
  line : string;
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

let rec skip_seps line i stop =
  if i < stop && is_sep (String.unsafe_get line i) then
    skip_seps line (i + 1) stop
  else i

let rec token_end line i stop =
  if i < stop && not (is_sep (String.unsafe_get line i)) then
    token_end line (i + 1) stop
  else i

(* [line] from [a] holds [name] *)
let rec span_is line a name i =
  i >= String.length name
  || String.unsafe_get line (a + i) = String.unsafe_get name i
     && span_is line a name (i + 1)

let span_equal line a b name =
  b - a = String.length name && span_is line a name 0

let int_of st key a b =
  let v = span st a b in
  match int_of_string v with
  | i -> i
  | exception Failure _ ->
      fail st (Printf.sprintf "%s=%s is not an integer" key v)

let float_of st key a b =
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

let rec find_key line a b k =
  if k = Array.length keys then -1
  else if span_equal line a b keys.(k).name then k
  else find_key line a b (k + 1)

(* One key=value token on [tok, stop) *)
let parse_token st tok stop =
  let line = st.line in
  let eq = index_from line tok stop '=' in
  if eq < 0 then
    fail st (Printf.sprintf "expected key=value, got %s" (span st tok stop));
  let k = find_key line tok eq 0 in
  if k < 0 then fail st (Printf.sprintf "unknown key %s" (span st tok eq));
  let bit = 1 lsl k in
  if st.given land bit <> 0 then
    fail st (Printf.sprintf "key %s given twice" keys.(k).name);
  st.given <- st.given lor bit;
  keys.(k).set st tok (eq + 1) stop

let rec parse_tokens st i stop =
  if i < stop then begin
    let e = token_end st.line i stop in
    parse_token st i e;
    parse_tokens st (skip_seps st.line e stop) stop
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

let query st quantity =
  let accuracy =
    match st.backend with
    | Some "mc" -> Engine.Query.Sampled { trials = st.trials; seed = st.seed }
    | _ -> Engine.Query.Exact
  in
  (* the query constructors reject bad values with Invalid_argument *)
  match
    match (st.ns, st.rs) with
    | Some ns, _ ->
        Engine.Query.n_sweep ~accuracy quantity st.scenario ~ns ~r:st.r
    | None, Some rs ->
        Engine.Query.r_sweep ~accuracy quantity st.scenario ~n:st.n ~rs
    | None, None ->
        Engine.Query.point ~accuracy quantity st.scenario ~n:st.n ~r:st.r
  with
  | q -> q
  | exception Invalid_argument msg -> fail st msg

let parse_line lineno line =
  let stop =
    match index_from line 0 (String.length line) '#' with
    | -1 -> String.length line
    | cut -> cut
  in
  let a = ref 0 and b = ref stop in
  while !a < !b && is_blank (String.unsafe_get line !a) do incr a done;
  while !b > !a && is_blank (String.unsafe_get line (!b - 1)) do decr b done;
  let a = !a and b = !b in
  if a = b then None
  else begin
    let e = token_end line a b in
    let qname = String.sub line a (e - a) in
    let quantity =
      match Engine.Query.quantity_of_name qname with
      | Some q -> q
      | None -> fail_at lineno (Printf.sprintf "unknown quantity %s" qname)
    in
    let st =
      { lineno; line; given = 0; scenario = Zeroconf.Params.figure2; n = 4;
        r = 2.; ns = None; rs = None; backend = None;
        trials = Engine.Crosscheck.default_trials;
        seed = Engine.Crosscheck.default_seed }
    in
    parse_tokens st (skip_seps line e b) b;
    check_keys st;
    Some (query st quantity, st.backend)
  end

let plan_line lineno line =
  match parse_line lineno line with
  | None -> None
  | Some (query, backend) -> (
      match Engine.Planner.plan ?backend query with
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
