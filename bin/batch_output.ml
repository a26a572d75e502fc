(* [zeroconf_cli batch]'s output: "QUANTITY SCENARIO n=N r=R VALUE" per
   point, then "# backend=B evals=E" per plan, from the batch's arrays.
   Every line is composed in one 64 KiB block, which is written out when
   the next line would not fit, and at the end.

   The fixed text comes from templates, rendered once per [emit]: the
   head "QUANTITY SCENARIO n=" once per (quantity, interned scenario
   id), keyed by the id, and the trailer "# backend=ROUTE evals=" once
   per route.  A template is copied straight into the block a word at a
   time, and n, " r=R " and the counts are written after it in place.
   A run's first line renders its head so; each next point of the run
   copies the head of the line before it in the block and adds one to
   N's digits there (the head is rendered again when the digits were all
   nines, or when the block was written out in between).  Every run,
   one point or a sweep, goes through the one loop below, and the only
   calls out of this module per line are the value writers of
   Output.Num_text, which read floats where they stand: nothing is
   allocated per line. *)

module N = Output.Num_text

let block_bytes = 65_536
let write_g6 = N.write_general_at ~digits:6
let write_g10 = N.write_general_at ~digits:10

(* unchecked word moves: every copy below stays within room reserved in
   the block, or within a template's padding *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* [len] bytes of [src] at [i] to [dst] at [j], eight at a time: up to
   seven more bytes are read past them and written over *)
let[@inline] copy_words src i dst j len =
  let k = ref 0 in
  while !k < len do
    set64u dst (j + !k) (get64u src (i + !k));
    k := !k + 8
  done

(* A template: its text, zero-padded to whole words, and its length. *)
type template = { text : Bytes.t; len : int }

let template s =
  let len = String.length s in
  let text = Bytes.make ((len + 7) land lnot 7) '\000' in
  Bytes.blit_string s 0 text 0 len;
  { text; len }

let no_template = { text = Bytes.empty; len = 0 }

(* a quantity's and a route's place in the template tables *)
let quantities = 5

let quantity_slot : Engine.Query.quantity -> int = function
  | Mean_cost -> 0
  | Error_probability -> 1
  | Log10_error -> 2
  | Cost_variance -> 3
  | Latency_mean -> 4

let route_slot : Engine.Plan.route -> int = function
  | Kernel -> 0
  | Analytic -> 1
  | Dtmc -> 2
  | Mc -> 3

let trailers =
  let t = Array.make 4 no_template in
  List.iter
    (fun route ->
      t.(route_slot route) <-
        template ("# backend=" ^ Engine.Plan.route_name route ^ " evals="))
    Engine.Plan.[ Kernel; Analytic; Dtmc; Mc ];
  t

let render_head heads (b : Engine.Batch.t) p i =
  heads.(i) <-
    template
      (Engine.Query.quantity_name b.quantity.(p)
      ^ " "
      ^ (Engine.Batch.scenario b p).Zeroconf.Params.name
      ^ " n=")

(* the head template of plan p, rendered at its first use *)
let[@inline] head heads (b : Engine.Batch.t) p =
  let i = (quantities * b.scenario_id.(p)) + quantity_slot b.quantity.(p) in
  if heads.(i).len = 0 then render_head heads b p i;
  heads.(i)

let[@inline] digit s i d = Bytes.unsafe_set s i (Char.unsafe_chr (48 + d))

(* the decimal digits of [n >= 0] at [i] of [s]; their end.  Most n
   and evals have one or two digits. *)
let put_int s i n =
  if n < 10 then begin
    digit s i n;
    i + 1
  end
  else if n < 100 then begin
    digit s i (n / 10);
    digit s (i + 1) (n mod 10);
    i + 2
  end
  else begin
    let e = ref (i + 3) and m = ref (n / 1000) in
    while !m > 0 do
      incr e;
      m := !m / 10
    done;
    let m = ref n in
    for j = !e - 1 downto i do
      digit s j (!m mod 10);
      m := !m / 10
    done;
    !e
  end

(* [s]'s decimal digits ending at [i], plus one; false when they were
   all nines, and are now all zeros *)
let rec succ_digits s i =
  match Bytes.get s i with
  | '0' .. '8' as c ->
      Bytes.set s i (Char.unsafe_chr (Char.code c + 1));
      true
  | '9' ->
      Bytes.set s i '0';
      succ_digits s (i - 1)
  | _ -> false

(* [pos], or 0 once the block is written out, so that [n] bytes are
   free there *)
let[@inline] free oc blk pos n =
  if pos + n <= Bytes.length blk.N.bytes then pos
  else begin
    output oc blk.N.bytes 0 pos;
    ignore (N.reserve blk 0 n : Bytes.t);
    0
  end

(* a line's bytes past its head's template: n, " r=R ", at most three
   values, " [", ", " and "]\n", and a template copy's last word *)
let line_room = (5 * N.room) + 16

let emit oc (b : Engine.Batch.t) =
  let blk = N.block block_bytes in
  let ids = ref 0 in
  for p = 0 to b.plans - 1 do
    ids := Int.max !ids (b.scenario_id.(p) + 1)
  done;
  let heads = Array.make (quantities * !ids) no_template in
  let pos = ref 0 in
  for p = 0 to b.plans - 1 do
    (* [Engine.Batch.trials b p > 0], read in place *)
    let sampled = p < Array.length b.trials && b.trials.(p) > 0 in
    let tpl = head heads b p in
    for t = b.run.(p) to b.run.(p + 1) - 1 do
      (* the line before: where it starts, and its n's and head's ends
         from there *)
      let start = ref 0 and n_end = ref 0 and head_end = ref 0 in
      for k = b.off.(t) to b.off.(t + 1) - 1 do
        pos := free oc blk !pos (tpl.len + line_room);
        let s = blk.bytes and at = !pos in
        if
          not
            (k > b.off.(t)
            && at > !start
            && begin
                 copy_words s !start s at !head_end;
                 succ_digits s (at + !n_end - 1)
               end)
        then begin
          copy_words tpl.text 0 s at tpl.len;
          let j = put_int s (at + tpl.len) (b.n_lo.(t) + k - b.off.(t)) in
          n_end := j - at;
          Bytes.unsafe_set s j ' ';
          Bytes.unsafe_set s (j + 1) 'r';
          Bytes.unsafe_set s (j + 2) '=';
          let j = write_g6 blk (j + 3) b.r t in
          Bytes.unsafe_set blk.bytes j ' ';
          head_end := j + 1 - at
        end;
        start := at;
        let j = at + !head_end in
        let j =
          if sampled then begin
            let j = N.write_string blk (write_g6 blk j b.value k) " [" in
            let j = N.write_string blk (write_g6 blk j b.ci_lo k) ", " in
            N.write_char blk (write_g6 blk j b.ci_hi k) ']'
          end
          else write_g10 blk j b.value k
        in
        Bytes.unsafe_set blk.bytes j '\n';
        pos := j + 1
      done
    done;
    let tpl = trailers.(route_slot b.route.(p)) in
    pos := free oc blk !pos (tpl.len + line_room);
    let s = blk.bytes in
    copy_words tpl.text 0 s !pos tpl.len;
    let j = put_int s (!pos + tpl.len) b.evals.(p) in
    Bytes.unsafe_set s j '\n';
    pos := j + 1
  done;
  output oc blk.bytes 0 !pos
