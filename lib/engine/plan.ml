(* The compiled form of a query: validated, normalized, routed.

   Planning is separated from execution so that the executor sees one
   canonical object per request, and the backends can group plans by
   interned scenario and point.  A plan keeps what execution reads
   (quantity, scenario, accuracy, points) and not the query itself: the
   domain's shape is compiled away, so a point query leaves one record,
   its points array and its pair behind, nothing more. *)

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
  quantity : Query.quantity;
  scenario : Zeroconf.Params.t;
  accuracy : Query.accuracy;
  route : route;
  scenario_id : int;
  points : (int * float) array;
}

(* -- scenario interning --------------------------------------------- *)

(* Scenarios are records holding closures (the delay distribution), so
   no structural equality exists.  Interning assigns each physically
   distinct Params.t a small id, its index in [interned]; only
   physically equal scenarios share one, because two distinct records
   can agree on every printed field and every sampled survival value
   and still differ between samples.  The common case (preset reuse)
   costs a scan of the first few entries.

   The table grows only in the domain that compiles plans, before the
   executor fans out to helper domains, which then read it as it
   stands; so it needs no lock and stays out of the R3 concurrency
   rule. *)

let interned = ref [||]

(* newest first: a caller that makes scenarios uses the latest *)
let rec find_id table p i =
  if i < 0 || table.(i) == p then i else find_id table p (i - 1)

let scenario_id (p : Zeroconf.Params.t) =
  match find_id !interned p (Array.length !interned - 1) with
  | -1 ->
      interned := Array.append !interned [| p |];
      Array.length !interned - 1
  | id -> id

let scenario_of_id id = !interned.(id)

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

(* The points as the domain they came from: one point, an n-sweep at
   one r, or an r-sweep at one n (bit-equal r, so -0 and 0 differ). *)
let add_points b (pts : (int * float) array) =
  let n0, r0 = pts.(0) and bits r = Int64.bits_of_float r in
  if Array.length pts = 1 then begin
    Buffer.add_string b "P:";
    add_int b n0;
    Buffer.add_char b ':';
    add_float b r0
  end
  else if Array.for_all (fun (_, r) -> bits r = bits r0) pts then begin
    Buffer.add_string b "N:";
    add_float b r0;
    Buffer.add_char b ':';
    Array.iter
      (fun (n, _) ->
        add_int b n;
        Buffer.add_char b ',')
      pts
  end
  else begin
    Buffer.add_string b "R:";
    add_int b n0;
    Buffer.add_char b ':';
    Array.iter
      (fun (_, r) ->
        add_float b r;
        Buffer.add_char b ',')
      pts
  end

let add_accuracy b (a : Query.accuracy) =
  match a with
  | Query.Exact -> Buffer.add_string b "exact"
  | Query.Sampled { trials; seed } ->
      Buffer.add_string b "sampled:";
      add_int b trials;
      Buffer.add_char b ':';
      add_int b seed

let key t =
  let b = Buffer.create 64 in
  Buffer.add_string b (Query.quantity_name t.quantity);
  Buffer.add_char b '|';
  Buffer.add_string b (route_name t.route);
  Buffer.add_string b "|#";
  add_int b t.scenario_id;
  Buffer.add_char b '|';
  add_points b t.points;
  Buffer.add_char b '|';
  add_accuracy b t.accuracy;
  Buffer.contents b

let make ~route (q : Query.t) =
  Query.validate q;
  { quantity = q.quantity; scenario = q.scenario; accuracy = q.accuracy;
    route; scenario_id = scenario_id q.scenario; points = Query.points q }
