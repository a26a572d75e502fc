(* Fixed reference work, timed between a workload's invocations to
   gauge how fast the host runs at the moment.

   usage: ref.exe

   It does the kinds of work the batch and figures executables do:
   transcendental float arithmetic, allocation that keeps a major heap
   of several megabytes live, hashing, and %.10g formatting written to
   standard output; about 70 ms of CPU on a 2.1 GHz Xeon KVM guest.  It
   uses nothing from the repository's libraries, so a change to them
   leaves the reference unchanged. *)

let cells = 60_000
let passes = 3

let () =
  let table = Hashtbl.create 4096 in
  let buf = Buffer.create (1 lsl 16) in
  let live = ref [] in
  for pass = 1 to passes do
    let column =
      Array.init cells (fun i ->
          let x = float_of_int (i + pass) *. 1e-5 in
          (x, exp (-.x) *. log1p x))
    in
    live := column :: !live;
    Array.iteri
      (fun i (x, y) ->
        if i land 7 = 0 then begin
          Buffer.add_string buf (Printf.sprintf "%.10g %.10g\n" x y);
          Hashtbl.replace table (i land 4095) y
        end;
        if Buffer.length buf > 1 lsl 15 then begin
          print_string (Buffer.contents buf);
          Buffer.clear buf
        end)
      column
  done;
  print_string (Buffer.contents buf);
  Printf.printf "%d %d\n" (List.length !live) (Hashtbl.length table)
