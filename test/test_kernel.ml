(* The kernel is the only implementation of Eqs. 1, 3 and 4: the
   point-wise [Cost.mean] / [Reliability] calls are one-shot cursor
   reads.  To keep an independent check, this file carries the
   point-wise loops the cursor replaced, verbatim, as an executable
   reference: a streamed or one-shot cost/error must be the same float
   the reference produces, at every job count, and a full optimal-n
   scan must spend O(n_max) survival evaluations. *)

module K = Zeroconf.Kernel
module O = Zeroconf.Optimize
module Params = Zeroconf.Params
module SF = Numerics.Safe_float

let fig2 = Params.figure2

(* ------------------------------------------------------------------ *)
(* the former point-wise Eq. 1/3/4 evaluation, verbatim                *)

module Reference = struct
  let pi_all (p : Params.t) ~n ~r =
    let s = p.delay.survival in
    let s0 = s 0. in
    let out = Array.make (n + 1) 1. in
    for i = 1 to n do
      let ratio = if s0 <= 0. then 0. else SF.div (s (float_of_int i *. r)) s0 in
      out.(i) <- out.(i - 1) *. ratio
    done;
    out

  let pi (p : Params.t) ~n ~r =
    let s = p.delay.survival in
    let s0 = s 0. in
    let acc = ref 1. in
    for i = 1 to n do
      let ratio = if s0 <= 0. then 0. else SF.div (s (float_of_int i *. r)) s0 in
      acc := !acc *. ratio
    done;
    !acc

  let log_pi (p : Params.t) ~n ~r =
    let s = p.delay.survival in
    let s0 = s 0. in
    let acc = ref 0. in
    for i = 1 to n do
      (* log p_i = log S(ir) - log S(0); S(0) = 1 for delay >= 0 *)
      let si = SF.div (s (float_of_int i *. r)) s0 in
      acc := !acc +. (if si <= 0. then neg_infinity else SF.log si)
    done;
    !acc

  let cost (p : Params.t) ~n ~r =
    let pis = pi_all p ~n ~r in
    let sum_pi = SF.sum (Array.sub pis 0 n) (* pi_0 .. pi_{n-1} *) in
    let pi_n = pis.(n) in
    let numerator =
      ((r +. p.probe_cost)
       *. ((float_of_int n *. (1. -. p.q)) +. (p.q *. sum_pi)))
      +. (p.q *. p.error_cost *. pi_n)
    in
    SF.div numerator (1. -. (p.q *. (1. -. pi_n)))

  let error_probability (p : Params.t) ~n ~r =
    let pi_n = pi p ~n ~r in
    SF.clamp_probability
      (SF.div (p.q *. pi_n) (1. -. (p.q *. (1. -. pi_n))))

  let log10_of_log_pi (p : Params.t) log_pi =
    (* denominator 1 - q(1 - pi_n): pi_n may underflow but the denominator
       stays near 1 - q, so evaluate it with the clamped pi_n *)
    let pi_n = SF.exp log_pi in
    let denom = 1. -. (p.q *. (1. -. pi_n)) in
    SF.div (SF.log p.q +. log_pi -. SF.log denom) (SF.log 10.)

  let log10_error_probability (p : Params.t) ~n ~r =
    log10_of_log_pi p (log_pi p ~n ~r)
end

(* ------------------------------------------------------------------ *)
(* unit: cursor state mirrors the reference prefix quantities         *)

let test_cursor_matches_probes () =
  let r = 1.3 in
  let k = K.create ~log_twin:true fig2 ~r in
  Alcotest.(check int) "starts at n = 0" 0 (K.n k);
  Alcotest.(check (float 0.)) "pi_0" 1. (K.pi k);
  for n = 1 to 12 do
    K.advance k;
    Alcotest.(check int) "n" n (K.n k);
    Alcotest.(check (float 0.)) "pi = reference pi"
      (Reference.pi fig2 ~n ~r) (K.pi k);
    let pis = Reference.pi_all fig2 ~n ~r in
    Alcotest.(check (float 0.)) "sum_pi = compensated prefix sum"
      (SF.sum (Array.sub pis 0 n)) (K.sum_pi k)
  done

let test_readers_match_direct () =
  List.iter
    (fun r ->
      let k = K.create ~log_twin:true fig2 ~r in
      for n = 1 to 16 do
        K.advance k;
        Alcotest.(check (float 0.)) "cost" (Reference.cost fig2 ~n ~r) (K.cost k);
        Alcotest.(check (float 0.)) "error"
          (Reference.error_probability fig2 ~n ~r)
          (K.error_probability k);
        Alcotest.(check (float 0.)) "log10 error"
          (Reference.log10_error_probability fig2 ~n ~r)
          (K.log10_error k)
      done)
    [ 0.; 0.05; 0.5; 1.; 2.; 6. ]

let test_guards () =
  Alcotest.check_raises "negative r"
    (Invalid_argument "Kernel.create: negative listening period") (fun () ->
      ignore (K.create fig2 ~r:(-1.)));
  Alcotest.check_raises "cost at n = 0"
    (Invalid_argument "Kernel.cost: n must be >= 1 (advance first)") (fun () ->
      ignore (K.cost (K.create fig2 ~r:1.)));
  Alcotest.check_raises "cursor only moves forward"
    (Invalid_argument "Kernel.advance_to: cursor already past n") (fun () ->
      let k = K.create fig2 ~r:1. in
      K.advance_to k ~n:3;
      K.advance_to k ~n:2);
  (* a refused column leaves the cursor where it was *)
  let k = K.create fig2 ~r:1. and dst = Array.make 4 0. in
  K.advance_to k ~n:3;
  List.iter
    (fun (what, lo, hi, off) ->
      Alcotest.check_raises what
        (Invalid_argument "Kernel.column: n range or slots out of bounds")
        (fun () -> K.column k K.Cost ~lo ~hi dst off);
      Alcotest.(check int) (what ^ ": cursor unmoved") 3 (K.n k))
    [ ("column from n = 0", 0, 4, 0); ("column hi < lo", 5, 4, 0);
      ("column behind the cursor", 2, 4, 0); ("column past the array", 3, 6, 1);
      ("column before the array", 3, 4, -1) ];
  K.column k K.Cost ~lo:3 ~hi:6 dst 0;
  Alcotest.(check (float 0.)) "column = point read" (Zeroconf.Cost.mean fig2 ~n:6 ~r:1.)
    dst.(3);
  Alcotest.check_raises "one-shot n = 0"
    (Invalid_argument "Cost.mean: n must be >= 1") (fun () ->
      ignore (Zeroconf.Cost.mean fig2 ~n:0 ~r:1.));
  Alcotest.check_raises "one-shot negative r"
    (Invalid_argument "Reliability.error_probability: negative listening period")
    (fun () -> ignore (Zeroconf.Reliability.error_probability fig2 ~n:1 ~r:(-1.)))

(* ------------------------------------------------------------------ *)
(* the full-scan oracle: every n up to the optimizer's cap             *)

(* first argmin of C_n(r) over n = 1 .. 4096, the optimizer's cap, one
   cursor stepped through every n *)
let full_scan (p : Params.t) ~r =
  let k = K.create p ~r in
  K.advance k;
  let best_n = ref 1 and best_cost = ref (K.cost k) in
  for n = 2 to 4096 do
    K.advance k;
    if K.cost k < !best_cost then begin
      best_n := n;
      best_cost := K.cost k
    end
  done;
  (!best_n, !best_cost)

let test_optimal_n_matches_full_scan () =
  List.iter
    (fun (name, p) ->
      Array.iter
        (fun r ->
          Alcotest.(check (pair int (float 0.)))
            (Printf.sprintf "%s, r = %g" name r)
            (full_scan p ~r) (O.optimal_n p ~r))
        (Array.append [| 0.; 1e-9; 0.02 |] (Numerics.Grid.linspace 0.05 6. 40)))
    Params.presets

let test_scan_error_fields () =
  (* the winner's log10 error is the reference's at the winner *)
  Array.iter
    (fun r ->
      let n, _ = O.optimal_n fig2 ~r in
      Alcotest.(check (float 0.)) "log10_error"
        (Reference.log10_error_probability fig2 ~n ~r)
        (O.log10_error_under_optimal_n fig2 ~r))
    (Numerics.Grid.linspace 0.3 6. 20)

(* ------------------------------------------------------------------ *)
(* the O(n_max) acceptance criterion, via a counting survival stub     *)

let counting_scenario () =
  let base = Dist.Families.shifted_exponential ~mass:0.999 ~rate:10. ~delay:1. () in
  let count = ref 0 in
  let dist =
    Dist.Distribution.v ~name:"counting" ~mass:base.Dist.Distribution.mass
      ~mean:base.Dist.Distribution.mean ~cdf:base.Dist.Distribution.cdf
      ~survival:(fun t ->
        incr count;
        base.Dist.Distribution.survival t)
      ~sample:base.Dist.Distribution.sample ()
  in
  ( Params.v ~name:"counting" ~delay:dist ~q:0.01 ~probe_cost:1. ~error_cost:1e6,
    count )

(* the scan stops at the first n whose bound (1-q) n (r + c), less the
   margin, passes C_min(r), or at the cap: one survival call per step
   up to there, and none past it *)
let test_optimal_n_is_linear_in_n_max () =
  let p, count = counting_scenario () in
  List.iter
    (fun r ->
      let _, c_min = O.optimal_n p ~r in
      let per_probe = (1. -. p.q) *. (r +. p.probe_cost) in
      let rec stop n =
        if n >= 4096 || per_probe *. float_of_int n *. (1. -. 1e-9) > c_min then n
        else stop (n + 1)
      in
      count := 0;
      ignore (O.optimal_n p ~r);
      let evals = !count and stop = stop 1 in
      Alcotest.(check bool)
        (Printf.sprintf "r = %g: scan to %d costs <= %d evaluations (got %d)" r
           stop (stop + 2) evals)
        true
        (evals > 0 && evals <= stop + 2))
    [ 0.; 0.5; 3. ]

(* ------------------------------------------------------------------ *)
(* qcheck: kernel sweeps vs the reference on random scenarios         *)

let scenario_gen =
  QCheck.Gen.(
    let* loss = float_range 0. 0.5 in
    let* rate = float_range 0.5 20. in
    let* delay = float_range 0. 2. in
    let* q = float_range 0.01 0.85 in
    let* error_cost = float_range 10. 1e8 in
    return
      (Params.v ~name:"prop"
         ~delay:(Dist.Families.shifted_exponential ~mass:(1. -. loss) ~rate ~delay ())
         ~q ~probe_cost:1. ~error_cost))

let agree ?(rtol = 1e-12) a b =
  a = b (* covers infinities and bit-identical floats *)
  || Oracle.approx_eq ~rtol a b

(* stream one cursor to n_max, checking every power-of-two checkpoint
   plus n_max itself against the reference *)
let prop_swept_values_agree =
  QCheck.Test.make ~name:"kernel sweep = direct Cost.mean / Reliability (<= 1e-12)"
    ~count:60
    QCheck.(triple (make scenario_gen) (int_range 1 4096) (float_range 0.01 8.))
    (fun (p, n_max, r) ->
      let k = K.create ~log_twin:true p ~r in
      let ok = ref true in
      let checkpoint = ref 1 in
      for n = 1 to n_max do
        K.advance k;
        if n = !checkpoint || n = n_max then begin
          checkpoint := 2 * !checkpoint;
          ok :=
            !ok
            && agree (Reference.cost p ~n ~r) (K.cost k)
            && agree (Reference.error_probability p ~n ~r)
                 (K.error_probability k)
            && agree (Reference.log10_error_probability p ~n ~r)
                 (K.log10_error k)
        end
      done;
      !ok)

let prop_one_shots_agree =
  QCheck.Test.make ~name:"one-shot reads = direct (bit-identical)" ~count:200
    QCheck.(triple (make scenario_gen) (int_range 1 64) (float_range 0. 8.))
    (fun (p, n, r) ->
      Zeroconf.Cost.mean p ~n ~r = Reference.cost p ~n ~r
      && Zeroconf.Reliability.error_probability p ~n ~r
         = Reference.error_probability p ~n ~r
      && Zeroconf.Reliability.log10_error_probability p ~n ~r
         = Reference.log10_error_probability p ~n ~r)

let prop_optimal_n_matches_full_scan =
  QCheck.Test.make ~name:"kernel optimal_n = full-scan first argmin"
    ~count:100
    QCheck.(pair (make scenario_gen) (float_range 0. 6.))
    (fun (p, r) -> full_scan p ~r = O.optimal_n p ~r)

(* Eq. 3's floors: C_n(r) >= (1-q) n (r + c) everywhere, and, with no
   reply before the shift d, C_n(r) >= min (q E + n c, (1-q) (d + n c));
   the computed cost may sit a few ulps below, never 1e-9 *)
let floors_hold (p : Params.t) ~d ~r ~n_max =
  let k = K.create p ~r in
  let c = p.probe_cost and q = p.q in
  let ok = ref (p.delay.survival d = p.delay.survival 0.) in
  for n = 1 to n_max do
    K.advance k;
    let cost = K.cost k and postage = float_of_int n *. c in
    let floor =
      Float.max
        ((1. -. q) *. float_of_int n *. (r +. c))
        (Float.min ((q *. p.error_cost) +. postage) ((1. -. q) *. (d +. postage)))
    in
    ok := !ok && cost >= floor *. (1. -. 1e-9)
  done;
  !ok

(* each preset's shift d, from Params *)
let preset_shifts =
  [ ("figure2", 1.); ("wireless-worst-case", 1.); ("wired-worst-case", 0.1);
    ("realistic-ethernet", 0.001) ]

let test_floors_on_presets () =
  List.iter
    (fun (name, p) ->
      let d = List.assoc name preset_shifts in
      Array.iter
        (fun r ->
          Alcotest.(check bool)
            (Printf.sprintf "%s, r = %g" name r)
            true
            (floors_hold p ~d ~r ~n_max:600))
        (Array.append [| 0.; 1e-9; 0.02 |] (Numerics.Grid.linspace 0.05 6. 40)))
    Params.presets

let prop_floors_hold =
  QCheck.Test.make ~name:"Eq. 3 floors hold on random scenarios" ~count:100
    QCheck.(
      make
        Gen.(
          let* loss = float_range 0. 0.5 in
          let* rate = float_range 0.5 20. in
          let* d = float_range 0. 2. in
          let* q = float_range 0.01 0.85 in
          let* error_cost = float_range 10. 1e8 in
          let* probe_cost = float_range 0. 2. in
          let* r = float_range 0. 8. in
          return
            ( Params.v ~name:"prop"
                ~delay:
                  (Dist.Families.shifted_exponential ~mass:(1. -. loss) ~rate
                     ~delay:d ())
                ~q ~probe_cost ~error_cost,
              d,
              r )))
    (fun (p, d, r) -> floors_hold p ~d ~r ~n_max:256)

(* ------------------------------------------------------------------ *)
(* reader sets: a cursor without the log twin stops calling survival   *)
(* once pi_n is +0, and every value keeps its bits                     *)

module Q = Engine.Query

let bits = Int64.bits_of_float

(* the kernel route's values for [plans], each a quantity and its
   probe counts at one (p, r), so they share one column *)
let kernel_route p ~r plans =
  Engine.Backends.Kernel.eval_batch
    (Array.of_list
       (List.map
          (fun (q, ns) ->
            Engine.Plan.make ~route:Engine.Plan.Kernel (Q.n_sweep q p ~ns ~r))
          plans))
  |> Array.map (fun (a : Engine.Answer.t) ->
         match a.Engine.Answer.values with
         | Engine.Answer.Scalars v -> v
         | Engine.Answer.Intervals _ -> assert false)

let point_read p ~n ~r = function
  | Q.Mean_cost -> Zeroconf.Cost.mean p ~n ~r
  | Q.Error_probability -> Zeroconf.Reliability.error_probability p ~n ~r
  | _ -> Zeroconf.Reliability.log10_error_probability p ~n ~r

let twin_read k = function
  | Q.Mean_cost -> K.cost k
  | Q.Error_probability -> K.error_probability k
  | _ -> K.log10_error k

let quantities = Q.[ Mean_cost; Error_probability; Log10_error ]
let index = function Q.Mean_cost -> 0 | Q.Error_probability -> 1 | _ -> 2

(* Each quantity at n = 1 .. n_max from point reads, and whether they
   agree with a cursor with the log twin, which never takes the
   early-out (a value frozen too early differs from its full step),
   and, for the log10 error, with the reference's formula on logs
   taken afresh at every step, so a log memo that hands back another
   ratio's log shows. *)
let expected (p : Params.t) ~r ~n_max =
  let e = Array.init 3 (fun _ -> Array.create_float (n_max + 1))
  and twin = K.create ~log_twin:true p ~r
  and s0 = p.delay.survival 0.
  and log_pi = ref 0.
  and ok = ref true in
  for n = 1 to n_max do
    K.advance twin;
    let si = SF.div (p.delay.survival (float_of_int n *. r)) s0 in
    log_pi := !log_pi +. (if si <= 0. then neg_infinity else SF.log si);
    List.iter
      (fun q ->
        let v = point_read p ~n ~r q in
        e.(index q).(n) <- v;
        ok := !ok && bits v = bits (twin_read twin q))
      quantities;
    ok := !ok && bits e.(2).(n) = bits (Reference.log10_of_log_pi p !log_pi)
  done;
  (e, !ok)

(* Probe counts in each shape a column's stops take: one run from
   n = 1, one from n_lo > 1, and runs out of order that overlap *)
let layouts n_max =
  let range lo hi = Array.init (hi - lo + 1) (fun i -> lo + i) in
  let h = (n_max + 1) / 2 in
  [| range 1 n_max;
     range h n_max;
     Array.concat
       [ range h n_max; range 1 h; range (max 1 (h / 2)) (min n_max (h + (h / 2))) ] |]

let reader_sets =
  Q.
    [ [ Mean_cost ]; [ Error_probability ]; [ Log10_error ];
      [ Mean_cost; Log10_error ]; [ Error_probability; Log10_error; Mean_cost ] ]

(* every reader set in every layout, the i-th plan of a set in layout
   i + j, so a shared column mixes them: each value has the expected
   bits at its n *)
let column_bits p ~r ~n_max =
  let e, ok = expected p ~r ~n_max and shapes = layouts n_max in
  ok
  && List.for_all
       (fun set ->
         List.for_all
           (fun j ->
             let plans = List.mapi (fun i q -> (q, shapes.((i + j) mod 3))) set in
             List.for_all2
               (fun (q, ns) v ->
                 Array.for_all2 (fun n x -> bits x = bits e.(index q).(n)) ns v)
               plans
               (Array.to_list (kernel_route p ~r plans)))
           [ 0; 1; 2 ])
       reader_sets

let prop_reader_sets_bit_identical =
  QCheck.Test.make
    ~name:"kernel route = point reads past underflow, per reader set (bits)"
    ~count:30
    QCheck.(
      triple
        (make
           Gen.(
             oneof
               [ map snd (oneofl Params.presets); scenario_gen ]))
        (make Gen.(oneof [ oneofl [ 0.; 1e-9; 6. ]; float_range 0.01 8. ]))
        (int_range 1 512))
    (fun (p, r, n_max) ->
      column_bits p ~r ~n_max && column_bits p ~r ~n_max:512)

(* The same check on the two tails a random case may miss: a loss-free
   delay, whose ratio reaches +0 (pi_n = +0 for good, log pi_n = -inf),
   and wireless-worst-case, whose pi_n underflows to +0 on a loss floor
   of 1e-5 while its ratio repeats, bit for bit, for most of the
   sweep *)
let test_column_tails () =
  let loss_free =
    Params.v ~name:"loss-free"
      ~delay:(Dist.Families.shifted_exponential ~mass:1. ~rate:10. ~delay:1. ())
      ~q:0.01 ~probe_cost:1. ~error_cost:1e6
  in
  List.iter
    (fun ((p : Params.t), r) ->
      let k = K.create p ~r and repeats = ref 0 and last = ref nan in
      for n = 1 to 512 do
        K.advance k;
        let si = SF.div (p.delay.survival (float_of_int n *. r)) (p.delay.survival 0.) in
        if si = !last then incr repeats;
        last := si
      done;
      Alcotest.(check bool) (p.name ^ ": pi_n reaches +0") true (K.pi k = 0.);
      Alcotest.(check bool)
        (Printf.sprintf "%s: the ratio repeats (%d of 512 steps)" p.name !repeats)
        true (!repeats > 256);
      Alcotest.(check bool) (p.name ^ ": kernel route = point reads (bits)") true
        (column_bits p ~r ~n_max:512))
    [ (loss_free, 1.); (Params.wireless_worst_case, 2.) ]

let test_early_out_survival_calls () =
  let p, count = counting_scenario () in
  (* the step at which pi_n reaches +0 *)
  let k = K.create p ~r:2. in
  while K.pi k <> 0. && K.n k < 512 do
    K.advance k
  done;
  let zero_at = K.n k in
  count := 0;
  let v = (kernel_route p ~r:2. [ (Q.Mean_cost, Array.init 512 (fun i -> i + 1)) ]).(0) in
  Alcotest.(check bool) "pi_n reaches +0 before n = 512" true (zero_at < 512);
  Alcotest.(check bool)
    (Printf.sprintf "ns=1:512 mean-cost calls survival %d times (at most %d)"
       !count (zero_at + 2))
    true
    (!count <= zero_at + 2);
  Alcotest.(check bool) "values are the point reads" true
    (Array.for_all Fun.id
       (Array.mapi (fun i x -> bits x = bits (Zeroconf.Cost.mean p ~n:(i + 1) ~r:2.)) v))

let test_log_twin_guards () =
  let k = K.create fig2 ~r:2. in
  K.advance k;
  Alcotest.check_raises "log10_error without the twin"
    (Invalid_argument "Kernel.log10_error: no log twin") (fun () ->
      ignore (K.log10_error k));
  Alcotest.check_raises "log10 column without the twin"
    (Invalid_argument "Kernel.column: no log twin") (fun () ->
      K.column k K.Log10 ~lo:1 ~hi:1 [| 0. |] 0)

(* ------------------------------------------------------------------ *)
(* job counts: kernel code on worker domains (the analytic route's     *)
(* fan-out runs it there) stays bit-identical                          *)

(* the job count at [jobs], back to serial afterwards *)
let with_jobs jobs f =
  Exec.Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Exec.Pool.set_jobs 1) f

let job_counts = [ 1; 2; 8 ]

let test_sweeps_bit_identical_across_jobs () =
  let grid = Numerics.Grid.linspace 0.05 6. 61 in
  let cost r = Zeroconf.Cost.mean fig2 ~n:4 ~r in
  let log10_error r = Zeroconf.Reliability.log10_error_probability fig2 ~n:4 ~r in
  let serial_costs = Array.map cost grid in
  let serial_errors = Array.map log10_error grid in
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          Alcotest.(check bool)
            (Printf.sprintf "kernel cost sweep at jobs = %d" jobs)
            true
            (serial_costs = Exec.Parallel.map cost grid);
          Alcotest.(check bool)
            (Printf.sprintf "kernel error sweep at jobs = %d" jobs)
            true
            (serial_errors = Exec.Parallel.map log10_error grid)))
    job_counts

let prop_parallel_scan_agrees =
  QCheck.Test.make
    ~name:"random scenario: kernel sweep bit-identical at jobs in {1, 2, 8}"
    ~count:10
    QCheck.(pair (make scenario_gen) (int_range 2 32))
    (fun (p, points) ->
      let grid = Numerics.Grid.linspace 0.05 6. points in
      let scan r = O.optimal_n p ~r in
      let reference = Array.map scan grid in
      List.for_all
        (fun jobs -> with_jobs jobs (fun () -> reference = Exec.Parallel.map scan grid))
        job_counts)

(* The kernel route keeps one cursor per (scenario, log twin) and
   resets it to each column's r.  One batch of n-sweeps in which those
   cursors serve, in turn: every preset; log10 columns and mean cost and
   error columns; wireless-worst-case at r = 2, whose pi_n reaches +0 by
   n = 150, then other r.  Every value must be the bits a fresh cursor
   gives.  The twin's columns run at r = 2.5, 3.5 and 0, so a reset
   that left the last ratio (its loss plateau) in place beside a zero
   log, or a zero r's ratio of 1 beside the plateau's log, would hand a
   column the wrong log.  The first mean cost column runs at r = 0.001,
   where pi_n stays near 1: its prefix sum nears n = 150 and leaves a
   Neumaier compensation far above the last bit of the next column's
   sum, near 1, so a stale one shows.  The same columns again, each
   listed twice, take the route's shared-column path. *)
let test_reused_cursors () =
  let n_max = 150 in
  let ns = Array.init n_max (fun i -> i + 1) in
  let columns =
    Q.
      [ (Mean_cost, 0.001); (Log10_error, 2.5); (Mean_cost, 2.);
        (Log10_error, 3.5); (Error_probability, 0.4); (Log10_error, 0.);
        (Mean_cost, 5.); (Error_probability, 2.) ]
  in
  let plans =
    List.concat_map
      (fun (q, r) ->
        List.map
          (fun (_, p) ->
            Engine.Plan.make ~route:Engine.Plan.Kernel (Q.n_sweep q p ~ns ~r))
          Params.presets)
      columns
  in
  assert (
    let k = K.create Params.wireless_worst_case ~r:2. in
    K.advance_to k ~n:n_max;
    K.pi k = 0.);
  let fresh (pl : Engine.Plan.t) =
    let k =
      K.create ~log_twin:(pl.quantity = Q.Log10_error) pl.scenario
        ~r:(snd pl.points.(0))
    and v = Array.create_float n_max in
    K.column k
      (match pl.quantity with
      | Q.Mean_cost -> K.Cost
      | Q.Error_probability -> K.Error
      | _ -> K.Log10)
      ~lo:1 ~hi:n_max v 0;
    v
  in
  List.iter
    (fun (path, plans) ->
      let answers = Engine.Backends.Kernel.eval_batch (Array.of_list plans) in
      List.iteri
        (fun i (pl : Engine.Plan.t) ->
          let want = fresh pl in
          Array.iteri
            (fun j v ->
              if bits v <> bits want.(j) then
                Alcotest.failf
                  "%s: %s of %s at n = %d, r = %g reads %h, a fresh cursor %h"
                  path (Q.quantity_name pl.quantity) pl.scenario.Params.name
                  (j + 1) (snd pl.points.(0)) v want.(j))
            (match answers.(i).Engine.Answer.values with
            | Engine.Answer.Scalars v -> v
            | Engine.Answer.Intervals _ -> assert false))
        plans)
    [ ("one run per column", plans);
      ("shared columns", List.concat_map (fun pl -> [ pl; pl ]) plans) ]

let test_reset_guard () =
  let k = K.create Params.figure2 ~r:1. in
  K.advance_to k ~n:3;
  (match K.reset k [| -1. |] 0 with
  | () -> Alcotest.fail "a negative r is refused"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "refused before the cursor moves" 3 (K.n k);
  K.reset k [| 0.5 |] 0;
  Alcotest.(check int) "back at n = 0" 0 (K.n k)

let () =
  Alcotest.run "kernel"
    [ ( "cursor",
        [ Alcotest.test_case "prefix quantities" `Quick test_cursor_matches_probes;
          Alcotest.test_case "readers" `Quick test_readers_match_direct;
          Alcotest.test_case "guards" `Quick test_guards ] );
      ( "optimal n",
        [ Alcotest.test_case "matches full scan" `Quick
            test_optimal_n_matches_full_scan;
          Alcotest.test_case "scan error fields" `Quick test_scan_error_fields;
          Alcotest.test_case "O(n_max) survival evaluations" `Quick
            test_optimal_n_is_linear_in_n_max;
          Alcotest.test_case "cost floors on presets" `Quick test_floors_on_presets ] );
      ( "reader set",
        [ Alcotest.test_case "early-out stops survival calls" `Quick
            test_early_out_survival_calls;
          Alcotest.test_case "log twin guards" `Quick test_log_twin_guards;
          Alcotest.test_case "column on the +0 tail and a log plateau" `Quick
            test_column_tails;
          Alcotest.test_case "reused cursor = fresh cursor" `Quick
            test_reused_cursors;
          Alcotest.test_case "reset guard" `Quick test_reset_guard ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_swept_values_agree; prop_one_shots_agree;
            prop_reader_sets_bit_identical;
            prop_optimal_n_matches_full_scan; prop_floors_hold;
            prop_parallel_scan_agrees ] );
      ( "parallel",
        [ Alcotest.test_case "bit-identical across job counts" `Quick
            test_sweeps_bit_identical_across_jobs ] ) ]
