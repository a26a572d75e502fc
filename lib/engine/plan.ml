(* The compiled form of a query: validated, normalized, routed, keyed.

   Planning is separated from execution so that the executor and the
   answer cache see one canonical object per request.  The key is
   structural — two queries asking for the same quantity, on the same
   interned scenario, over the same points, at the same accuracy,
   through the same route, compile to the same key even when built
   independently — which is what makes the cache deterministic. *)

type route = Kernel | Analytic | Dtmc | Mc

let route_name = function
  | Kernel -> "kernel"
  | Analytic -> "analytic"
  | Dtmc -> "dtmc"
  | Mc -> "mc"

let route_of_name name =
  match String.lowercase_ascii name with
  | "kernel" -> Some Kernel
  | "analytic" -> Some Analytic
  | "dtmc" -> Some Dtmc
  | "mc" -> Some Mc
  | _ -> None

type t = {
  query : Query.t;
  route : route;
  scenario_id : int;
  points : (int * float) array;
  key : string Lazy.t;
}

(* -- scenario interning --------------------------------------------- *)

(* Scenarios are records holding closures (the delay distribution), so
   no structural equality exists.  Interning assigns each physically
   distinct Params.t a small id; only physically equal scenarios share
   one, because two distinct records can agree on every printed field
   and every sampled survival value and still differ between samples.
   The common case (preset reuse) costs one list walk.

   The table is only ever touched from the domain that compiles plans
   (the executor compiles before fanning out over the pool), so it
   needs no lock and stays out of the R3 concurrency rule. *)

let interned : (Zeroconf.Params.t * int) list ref = ref []

let scenario_id (p : Zeroconf.Params.t) =
  match List.assq_opt p !interned with
  | Some id -> id
  | None ->
      let id = List.length !interned in
      interned := (p, id) :: !interned;
      id

(* -- the structural key --------------------------------------------- *)

(* Ints as decimal digits and floats as the 16 hex digits of their IEEE
   bits: both exact and injective (-0 and 0 differ), and no Printf. *)
let add_int = Output.Num_text.add_int

let hex_digits = "0123456789abcdef"

let add_float b x =
  let bits = Int64.bits_of_float x in
  for i = 15 downto 0 do
    Buffer.add_char b
      hex_digits.[Int64.to_int (Int64.shift_right_logical bits (4 * i)) land 15]
  done

let add_domain b (d : Query.domain) =
  match d with
  | Query.Point { n; r } ->
      Buffer.add_string b "P:";
      add_int b n;
      Buffer.add_char b ':';
      add_float b r
  | Query.N_sweep { ns; r } ->
      Buffer.add_string b "N:";
      add_float b r;
      Buffer.add_char b ':';
      Array.iter
        (fun n ->
          add_int b n;
          Buffer.add_char b ',')
        ns
  | Query.R_sweep { n; rs } ->
      Buffer.add_string b "R:";
      add_int b n;
      Buffer.add_char b ':';
      Array.iter
        (fun r ->
          add_float b r;
          Buffer.add_char b ',')
        rs

let add_accuracy b (a : Query.accuracy) =
  match a with
  | Query.Exact -> Buffer.add_string b "exact"
  | Query.Sampled { trials; seed } ->
      Buffer.add_string b "sampled:";
      add_int b trials;
      Buffer.add_char b ':';
      add_int b seed

let key_of ~route ~scenario_id (q : Query.t) =
  let b = Buffer.create 64 in
  Buffer.add_string b (Query.quantity_name q.quantity);
  Buffer.add_char b '|';
  Buffer.add_string b (route_name route);
  Buffer.add_string b "|#";
  add_int b scenario_id;
  Buffer.add_char b '|';
  add_domain b q.domain;
  Buffer.add_char b '|';
  add_accuracy b q.accuracy;
  Buffer.contents b

let make ~route (q : Query.t) =
  Query.validate q;
  let scenario_id = scenario_id q.scenario in
  { query = q;
    route;
    scenario_id;
    points = Query.points q;
    (* computed on demand: the key is only read when a cache is in
       play, and rendering a long domain is a measurable share of
       compile time on cache-off batch sweeps.  Forced only
       from the caller's domain (executor partition, cache), never
       from pool workers. *)
    key = lazy (key_of ~route ~scenario_id q) }

let key t = Lazy.force t.key
let size t = Array.length t.points

let pp ppf t =
  Format.fprintf ppf "%a via %s [scenario #%d, %d point%s]" Query.pp t.query
    (route_name t.route) t.scenario_id (size t)
    (if size t = 1 then "" else "s")
