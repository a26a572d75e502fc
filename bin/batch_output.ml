(* [zeroconf_cli batch]'s output: "QUANTITY SCENARIO n=N r=R VALUE" per
   point, then "# backend=B evals=E" per plan, from the batch's arrays.
   Every line is composed in one 64 KiB block, which is written out when
   the next line would not fit, and at the end.  A run's head
   "QUANTITY SCENARIO n=N r=R " is rendered once into a line template;
   each next point adds one to N's digits in place, and its value is
   written after the head in the block.  Nothing is allocated per line:
   Output.Num_text reads floats where they stand. *)

module N = Output.Num_text

let block_bytes = 65_536
let write_g6 = N.write_general_at ~digits:6
let write_g10 = N.write_general_at ~digits:10

(* a line's bytes past its head: at most three values, " [", ", " and
   "]\n" *)
let tail_bytes = (3 * N.room) + 8

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

(* "QUANTITY SCENARIO n=N" of plan p at n, into [line] at 0; its end *)
let put_n (b : Engine.Batch.t) line p n =
  let j = N.write_string line 0 (Engine.Query.quantity_name b.quantity.(p)) in
  let j = N.write_char line j ' ' in
  let j = N.write_string line j (Engine.Batch.scenario b p).Zeroconf.Params.name in
  N.write_int line (N.write_string line j " n=") n

(* " r=R " of run t, into [line] at [j]; the head's end *)
let put_r (b : Engine.Batch.t) line t j =
  N.write_char line (write_g6 line (N.write_string line j " r=") b.r t) ' '

(* [pos], or 0 once the block is written out, so that [n] bytes are
   free there *)
let[@inline] free oc blk pos n =
  if pos + n <= Bytes.length blk.N.bytes then pos
  else begin
    output oc blk.N.bytes 0 pos;
    ignore (N.reserve blk 0 n : Bytes.t);
    0
  end

let emit oc (b : Engine.Batch.t) =
  let blk = N.block block_bytes and line = N.block 64 in
  let pos = ref 0 in
  for p = 0 to b.plans - 1 do
    let sampled = Engine.Batch.trials b p > 0 in
    for t = b.run.(p) to b.run.(p + 1) - 1 do
      let n_end = ref (put_n b line p b.n_lo.(t)) in
      let head = ref (put_r b line t !n_end) in
      for k = b.off.(t) to b.off.(t + 1) - 1 do
        if k > b.off.(t) && not (succ_digits line.bytes (!n_end - 1)) then begin
          n_end := put_n b line p (b.n_lo.(t) + k - b.off.(t));
          head := put_r b line t !n_end
        end;
        pos := free oc blk !pos (!head + tail_bytes);
        Bytes.blit line.bytes 0 blk.bytes !pos !head;
        let j = !pos + !head in
        let j =
          if sampled then begin
            let j = N.write_string blk (write_g6 blk j b.value k) " [" in
            let j = N.write_string blk (write_g6 blk j b.ci_lo k) ", " in
            N.write_char blk (write_g6 blk j b.ci_hi k) ']'
          end
          else write_g10 blk j b.value k
        in
        (* the room [tail_bytes] set aside holds the newline *)
        Bytes.set blk.bytes j '\n';
        pos := j + 1
      done
    done;
    let route = Engine.Plan.route_name b.route.(p) in
    (* "# backend=", " evals=", '\n' and the evals' room *)
    pos := free oc blk !pos (String.length route + 18 + N.room);
    let j = N.write_string blk (N.write_string blk !pos "# backend=") route in
    let j = N.write_int blk (N.write_string blk j " evals=") b.evals.(p) in
    pos := N.write_char blk j '\n'
  done;
  output oc blk.bytes 0 !pos
