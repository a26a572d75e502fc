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

let route_index = function
  | Kernel -> 0
  | Analytic -> 1
  | Dtmc -> 2
  | Mc -> 3

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
   bits: both exact and injective (-0 and 0 differ), and no Printf.
   Each key is composed in a block of its own. *)
module N = Output.Num_text

let hex_digits = "0123456789abcdef"

let write_float blk pos x =
  let s = N.reserve blk pos 16 and bits = Int64.bits_of_float x in
  for i = 0 to 15 do
    Bytes.set s (pos + i)
      hex_digits.[Int64.to_int (Int64.shift_right_logical bits (4 * (15 - i)))
                  land 15]
  done;
  pos + 16

(* The points as the domain they came from: one point, an n-sweep at
   one r, or an r-sweep at one n (bit-equal r, so -0 and 0 differ). *)
let write_points blk pos (pts : (int * float) array) =
  let n0, r0 = pts.(0) and bits r = Int64.bits_of_float r in
  if Array.length pts = 1 then begin
    let pos = N.write_int blk (N.write_string blk pos "P:") n0 in
    write_float blk (N.write_char blk pos ':') r0
  end
  else if Array.for_all (fun (_, r) -> bits r = bits r0) pts then begin
    let pos = write_float blk (N.write_string blk pos "N:") r0 in
    Array.fold_left
      (fun pos (n, _) -> N.write_char blk (N.write_int blk pos n) ',')
      (N.write_char blk pos ':') pts
  end
  else begin
    let pos = N.write_int blk (N.write_string blk pos "R:") n0 in
    Array.fold_left
      (fun pos (_, r) -> N.write_char blk (write_float blk pos r) ',')
      (N.write_char blk pos ':') pts
  end

let write_accuracy blk pos (a : Query.accuracy) =
  match a with
  | Query.Exact -> N.write_string blk pos "exact"
  | Query.Sampled { trials; seed } ->
      let pos = N.write_int blk (N.write_string blk pos "sampled:") trials in
      N.write_int blk (N.write_char blk pos ':') seed

let key t =
  let blk = N.block 64 in
  let pos = N.write_string blk 0 (Query.quantity_name t.quantity) in
  let pos = N.write_char blk pos '|' in
  let pos = N.write_string blk pos (route_name t.route) in
  let pos = N.write_int blk (N.write_string blk pos "|#") t.scenario_id in
  let pos = write_points blk (N.write_char blk pos '|') t.points in
  let pos = write_accuracy blk (N.write_char blk pos '|') t.accuracy in
  Bytes.sub_string blk.N.bytes 0 pos

let make ~route (q : Query.t) =
  Query.validate q;
  { quantity = q.quantity; scenario = q.scenario; accuracy = q.accuracy;
    route; scenario_id = scenario_id q.scenario; points = Query.points q }
