(* [zeroconf_cli batch]'s output: "QUANTITY SCENARIO n=N r=R VALUE" per
   point, then "# backend=B evals=E" per plan, from the batch's arrays
   into one buffer, written out past [spill_bytes] and at the end.  A
   run's head "QUANTITY SCENARIO n=N r=R " is rendered once; each next
   point adds one to N's digits in place.  Nothing is allocated per
   line: Output.Num_text reads floats where they stand. *)

let spill_bytes = 65_536
let add_g6 = Output.Num_text.add_general_at ~digits:6
let add_g10 = Output.Num_text.add_general_at ~digits:10

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

let emit oc (b : Engine.Batch.t) =
  let buf = Buffer.create 4096 and head = Buffer.create 64 in
  let line = ref (Bytes.create 64) in
  (* the head of plan p's line at n in run t into [line], and the index
     of n's last digit there *)
  let render p t n =
    Buffer.clear head;
    Buffer.add_string head (Engine.Query.quantity_name b.quantity.(p));
    Buffer.add_char head ' ';
    Buffer.add_string head (Engine.Batch.scenario b p).Zeroconf.Params.name;
    Buffer.add_string head " n=";
    Output.Num_text.add_int head n;
    let last = Buffer.length head - 1 in
    Buffer.add_string head " r=";
    add_g6 head b.r t;
    Buffer.add_char head ' ';
    if Buffer.length head > Bytes.length !line then
      line := Bytes.create (2 * Buffer.length head);
    Buffer.blit head 0 !line 0 (Buffer.length head);
    last
  in
  for p = 0 to b.plans - 1 do
    let sampled = Engine.Batch.trials b p > 0 in
    for t = b.run.(p) to b.run.(p + 1) - 1 do
      let last = ref (render p t b.n_lo.(t)) in
      for k = b.off.(t) to b.off.(t + 1) - 1 do
        if k > b.off.(t) && not (succ_digits !line !last) then
          last := render p t (b.n_lo.(t) + k - b.off.(t));
        Buffer.add_subbytes buf !line 0 (Buffer.length head);
        if sampled then begin
          add_g6 buf b.value k;
          Buffer.add_string buf " [";
          add_g6 buf b.ci_lo k;
          Buffer.add_string buf ", ";
          add_g6 buf b.ci_hi k;
          Buffer.add_char buf ']'
        end
        else add_g10 buf b.value k;
        Buffer.add_char buf '\n';
        if Buffer.length buf >= spill_bytes then begin
          Buffer.output_buffer oc buf;
          Buffer.clear buf
        end
      done
    done;
    Buffer.add_string buf "# backend=";
    Buffer.add_string buf (Engine.Plan.route_name b.route.(p));
    Buffer.add_string buf " evals=";
    Output.Num_text.add_int buf b.evals.(p);
    Buffer.add_char buf '\n'
  done;
  Buffer.output_buffer oc buf
