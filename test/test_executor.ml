(* The execute stage's contract: batched evaluation is a pure
   amortization — for ANY mix of queries, [Executor.eval_batch] must
   return bitwise the same points as evaluating each query alone, at
   any job count.  This is the invariant that lets the
   figure drivers and the CLI batch subcommand share kernel cursors and
   DTMC matrix builds without anyone auditing the numerics again.

   The property below drives that with qcheck: random scenarios, all
   five quantities, all three domain shapes, exact and sampled
   accuracies, batch sizes 1-10, compared across jobs 1 and 8.  Each
   mix draws its r values from a small pool that holds 0 and -0, and
   its n-sweeps may be unsorted and repeat an n, its r-sweeps repeat an
   r: plans share kernel columns, and one plan may visit a column in
   several runs.  Kernel answers' evals are checked against a
   reference scan of the batch's columns. *)

module Q = Engine.Query
module A = Engine.Answer

let bits = Int64.bits_of_float

let values_eq (a : A.t) (b : A.t) =
  let same x y = bits x = bits y in
  match (a.A.values, b.A.values) with
  | A.Scalars x, A.Scalars y -> Array.for_all2 same x y
  | A.Intervals x, A.Intervals y ->
      Array.for_all2
        (fun (i : A.interval) (j : A.interval) ->
          same i.mean j.mean && same i.ci_lo j.ci_lo && same i.ci_hi j.ci_hi)
        x y
  | _ -> false

let points_eq (a : A.t) (b : A.t) =
  Array.length a.A.points = Array.length b.A.points
  && Array.for_all2
       (fun (n, r) (n', r') -> n = n' && bits r = bits r')
       a.A.points b.A.points
  && values_eq a b

(* The kernel's evals, by a reference scan: each (scenario, bits of r)
   column visits its stops in (n, plan, point) order, and every advance
   is charged to the later stop's plan. *)
let reference_evals (plans : Engine.Plan.t array) =
  let columns = Hashtbl.create 16 in
  Array.iteri
    (fun pi (pl : Engine.Plan.t) ->
      Array.iteri
        (fun qi (n, r) ->
          let key = (pl.scenario_id, bits r) in
          let stops = Option.value ~default:[] (Hashtbl.find_opt columns key) in
          Hashtbl.replace columns key ((n, pi, qi) :: stops))
        pl.points)
    plans;
  let evals = Array.make (Array.length plans) 0 in
  Hashtbl.iter
    (fun _ stops ->
      ignore
        (List.fold_left
           (fun at (n, pi, _) ->
             evals.(pi) <- evals.(pi) + n - at;
             n)
           0 (List.sort compare stops)))
    columns;
  evals

(* -- random query mixes -------------------------------------------- *)

let scenario_gen =
  QCheck.Gen.(
    let* loss = float_range 0. 0.4 in
    let* rate = float_range 0.5 20. in
    let* delay = float_range 0. 1.5 in
    (* q stays moderate: the netsim route materializes q·2^16 occupied
       addresses per trial, so crowded scenarios price every sampled
       query at seconds, not microseconds *)
    let* q = float_range 0.01 0.3 in
    let* c = float_range 0. 5. in
    let* e = float_range 1. 1e4 in
    return
      (Zeroconf.Params.v ~name:"prop"
         ~delay:
           (Dist.Families.shifted_exponential ~mass:(1. -. loss) ~rate ~delay
              ())
         ~q ~probe_cost:c ~error_cost:e))

(* a handful of scenarios per mix, so batches mingle queries that share
   a scenario (exercising cursor/matrix sharing) with ones that don't *)
let scenarios_gen = QCheck.Gen.(array_size (int_range 1 3) scenario_gen)

(* a few r values per mix, 0 and -0 among them, so queries of a mix
   meet on shared (scenario, r) columns *)
let r_pool_gen =
  QCheck.Gen.(
    let* rs = array_size (int_range 1 3) (float_range 0. 4.) in
    return (Array.append [| 0.; -0. |] rs))

let domain_gen r_pool =
  QCheck.Gen.(
    let r_gen = oneofa r_pool in
    let* shape = int_range 0 2 in
    match shape with
    | 0 ->
        let* n = int_range 1 10 in
        let* r = r_gen in
        return (Q.Point { n; r })
    | 1 ->
        let* len = int_range 1 6 in
        let* ns =
          oneof
            [ (let* lo = int_range 1 6 in
               return (Array.init len (fun i -> lo + i)));
              (* unsorted, with repeats *)
              array_repeat len (int_range 1 10) ]
        in
        let* r = r_gen in
        return (Q.N_sweep { ns; r })
    | _ ->
        let* n = int_range 1 10 in
        let* rs = array_size (int_range 1 5) r_gen in
        return (Q.R_sweep { n; rs }))

let query_gen ?(kernel_only = false) scenarios r_pool =
  QCheck.Gen.(
    let* scenario = oneofl (Array.to_list scenarios) in
    let* domain = domain_gen r_pool in
    (* picks 0-5 are the kernel's exact quantities *)
    let* pick = int_range 0 (if kernel_only then 5 else 8) in
    (* weight the deterministic quantities; fold in sampled (Monte
       Carlo) and DRM-only (Cost_variance) mixes at lower rates *)
    let* quantity, accuracy =
      match pick with
      | 0 | 1 | 2 -> return (Q.Mean_cost, Q.Exact)
      | 3 | 4 -> return (Q.Error_probability, Q.Exact)
      | 5 -> return (Q.Log10_error, Q.Exact)
      | 6 -> return (Q.Cost_variance, Q.Exact)
      | 7 -> return (Q.Latency_mean, Q.Exact)
      | _ ->
          let* trials = int_range 10 40 in
          let* seed = int_range 0 10_000 in
          let* mc_q = oneofl [ Q.Mean_cost; Q.Error_probability ] in
          return (mc_q, Q.Sampled { trials; seed })
    in
    return { Q.quantity; scenario; domain; accuracy })

let mix_gen ?kernel_only () =
  QCheck.Gen.(
    let* scenarios = scenarios_gen in
    let* r_pool = r_pool_gen in
    array_size (int_range 1 10) (query_gen ?kernel_only scenarios r_pool))

let mix_arbitrary ?kernel_only () =
  QCheck.make
    ~print:(fun qs ->
      String.concat "; "
        (Array.to_list (Array.map (Format.asprintf "%a" Q.pp) qs)))
    (mix_gen ?kernel_only ())

(* -- the property --------------------------------------------------- *)

(* [f ()] at [jobs] jobs, back at one job after *)
let at_jobs jobs f =
  Exec.Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Exec.Pool.set_jobs 1) f

let check_same ~what reference answers =
  if Array.length reference <> Array.length answers then
    QCheck.Test.fail_reportf "%s: answer count mismatch" what;
  Array.iteri
    (fun i r ->
      if not (points_eq r answers.(i)) then
        QCheck.Test.fail_reportf "%s: answer %d differs bitwise (%s, %d points)"
          what i r.A.backend (Array.length r.A.points))
    reference;
  true

(* the kernel answers of a batch carry the reference scan's evals; the kernel's batch is the mix's kernel-routed plans, in order *)
let check_kernel_evals ~what queries (answers : A.t array) =
  let plans = Array.map Engine.Planner.plan queries in
  let kernel =
    List.filter
      (fun i -> plans.(i).Engine.Plan.route = Engine.Plan.Kernel)
      (List.init (Array.length plans) Fun.id)
  in
  let expected =
    reference_evals (Array.of_list (List.map (fun i -> plans.(i)) kernel))
  in
  List.iteri
    (fun j i ->
      if answers.(i).A.evals <> expected.(j) then
        QCheck.Test.fail_reportf "%s: answer %d has %d kernel evals, not %d"
          what i answers.(i).A.evals expected.(j))
    kernel

let prop_batch_equals_scalar =
  QCheck.Test.make ~name:"eval_batch = map eval, bitwise, any jobs"
    ~count:40 (mix_arbitrary ())
    (fun queries ->
      let check_jobs jobs reference =
        at_jobs jobs (fun () ->
            let what = Printf.sprintf "jobs=%d" jobs in
            let batch = Engine.Executor.eval_batch queries in
            ignore (check_same ~what reference batch);
            check_kernel_evals ~what queries batch)
      in
      (* reference: each query evaluated alone *)
      let reference =
        at_jobs 1 (fun () -> Array.map Engine.Executor.eval queries)
      in
      check_jobs 1 reference;
      check_jobs 8 reference;
      true)

(* Shared work is never counted twice nor dropped: over a kernel batch
   the evals sum to the scan work, each column's largest n. *)
let prop_kernel_evals_sum =
  QCheck.Test.make ~name:"kernel evals sum to each column's max n"
    ~count:200 (mix_arbitrary ~kernel_only:true ())
    (fun queries ->
      let plans = Array.map (Engine.Plan.make ~route:Engine.Plan.Kernel) queries in
      let col_max = Hashtbl.create 16 in
      Array.iter
        (fun (pl : Engine.Plan.t) ->
          Array.iter
            (fun (n, r) ->
              let key = (pl.scenario_id, bits r) in
              let m = Option.value ~default:0 (Hashtbl.find_opt col_max key) in
              Hashtbl.replace col_max key (max m n))
            pl.points)
        plans;
      let scan = Hashtbl.fold (fun _ n acc -> acc + n) col_max 0 in
      let expected = reference_evals plans in
      let answers = Engine.Backends.Kernel.eval_batch plans in
      Array.iteri
        (fun i (a : A.t) ->
          if a.A.evals <> expected.(i) then
            QCheck.Test.fail_reportf "plan %d: %d evals, reference %d" i
              a.A.evals expected.(i))
        answers;
      Array.fold_left (fun acc (a : A.t) -> acc + a.A.evals) 0 answers = scan)

(* -- the columnar batch against the plan-array path ------------------ *)

(* Random [batch] inputs: all five quantities, the default route and
   each forced one that serves the quantity (Monte Carlo with its own
   trials and seed), point, ns= and rs= lines over a small r pool that
   holds r=0 and r=-0, so plans share kernel columns, and each line
   possibly repeated. *)
let batch_line_gen =
  QCheck.Gen.(
    let r_text = oneofl [ "0"; "-0"; "0.5"; "2"; "2.000001" ] in
    let* quantity =
      oneofl
        [ "mean-cost"; "error-probability"; "log10-error"; "cost-variance";
          "latency-mean" ]
    in
    let backends =
      match quantity with
      | "mean-cost" | "error-probability" ->
          [ ""; "kernel"; "analytic"; "dtmc"; "mc" ]
      | "log10-error" -> [ ""; "kernel"; "analytic"; "dtmc" ]
      | "cost-variance" -> [ ""; "dtmc" ]
      | _ -> [ ""; "analytic"; "mc" ]
    in
    let* backend = oneofl backends in
    let* scenario = oneofl (List.map fst Zeroconf.Params.presets) in
    let* domain =
      oneof
        [ map2 (Printf.sprintf "n=%d r=%s") (int_range 1 10) r_text;
          (let* lo = int_range 1 6 and* len = int_range 0 4 and* r = r_text in
           return (Printf.sprintf "ns=%d:%d r=%s" lo (lo + len) r));
          (let* n = int_range 1 10 and* lo = r_text and* hi = r_text in
           let* points = if lo = hi then return 1 else int_range 2 4 in
           return (Printf.sprintf "n=%d rs=%s:%s:%d" n lo hi points)) ]
    in
    let* sampling =
      if backend = "mc" then
        map2 (Printf.sprintf " trials=%d seed=%d") (int_range 5 20)
          (int_range 0 50)
      else return ""
    in
    let* copies = frequency [ (4, return 1); (1, return 2) ] in
    return
      (List.init copies (fun _ ->
           Printf.sprintf "%s scenario=%s %s%s%s" quantity scenario domain
             (if backend = "" then "" else " backend=" ^ backend)
             sampling)))

let batch_text_gen =
  QCheck.Gen.(
    map
      (fun lines -> String.concat "\n" (List.concat lines))
      (list_size (int_range 1 12) batch_line_gen))

(* Each line's plan, through the per-query front end *)
let plans_of_text text =
  List.filter_map
    (fun line ->
      Option.map
        (fun (q, backend) -> Engine.Planner.plan ?backend q)
        (Batch_input.parse_line 1 line))
    (String.split_on_char '\n' text)
  |> Array.of_list

(* [Batch_input.read] and [Executor.execute] on 2 domains give every
   point the value and interval bits of [Executor.run_batch] on the
   plans of the per-query front end, and of each plan run alone; every
   plan the same route and evals; and the kernel plans the evals of the
   reference scan. *)
let prop_columnar_equals_plans =
  QCheck.Test.make ~name:"columnar batch = plan-array batch, bitwise"
    ~count:60
    (QCheck.make ~print:Fun.id batch_text_gen)
    (fun text ->
      let b = at_jobs 2 (fun () ->
          let b = Batch_input.read text in
          Engine.Executor.execute b;
          b)
      in
      let plans = plans_of_text text in
      let answers = Engine.Executor.run_batch plans in
      if b.plans <> Array.length plans then
        QCheck.Test.fail_reportf "%d plans, not %d" b.plans
          (Array.length plans);
      let kernel =
        List.filter
          (fun p -> plans.(p).Engine.Plan.route = Engine.Plan.Kernel)
          (List.init b.plans Fun.id)
      in
      let expected =
        reference_evals (Array.of_list (List.map (fun p -> plans.(p)) kernel))
      in
      List.iteri
        (fun j p ->
          if b.evals.(p) <> expected.(j) then
            QCheck.Test.fail_reportf "plan %d: %d kernel evals, reference %d" p
              b.evals.(p) expected.(j))
        kernel;
      Array.iteri
        (fun p (a : A.t) ->
          let alone = (Engine.Executor.run_batch [| plans.(p) |]).(0) in
          if
            Engine.Plan.route_name b.route.(p) <> a.A.backend
            || b.evals.(p) <> a.A.evals
          then
            QCheck.Test.fail_reportf "plan %d: %s evals=%d, not %s evals=%d" p
              (Engine.Plan.route_name b.route.(p)) b.evals.(p) a.A.backend
              a.A.evals;
          for i = 0 to Array.length a.A.points - 1 do
            let k = Engine.Batch.first_point b p + i in
            let column =
              [ b.value.(k) ]
              @ if Engine.Batch.trials b p > 0 then [ b.ci_lo.(k); b.ci_hi.(k) ]
                else []
            and view (a : A.t) =
              match A.ci a i with
              | Some (lo, hi) -> [ A.scalar a i; lo; hi ]
              | None -> [ A.scalar a i ]
            in
            let same x y = List.map bits x = List.map bits y in
            if not (same column (view a) && same column (view alone)) then
              QCheck.Test.fail_reportf "plan %d, point %d differs bitwise" p i
          done)
        answers;
      true)

(* -- plans as runs ---------------------------------------------------- *)

(* Plan [p]'s points as [Batch.of_plans] holds them: its runs, each
   read back point by point *)
let points_of_runs (b : Engine.Batch.t) p =
  List.concat_map
    (fun t ->
      List.init (b.off.(t + 1) - b.off.(t)) (fun i -> (b.n_lo.(t) + i, b.r.(t))))
    (List.init (b.run.(p + 1) - b.run.(p)) (fun i -> b.run.(p) + i))

(* n-sweeps in every shape the run splitter meets: contiguous, gapped,
   descending, one n repeated, and random; r-sweeps over a pool with
   repeats and 0 next to -0 *)
let runs_domain_gen r_pool =
  QCheck.Gen.(
    let* len = int_range 1 6 and* lo = int_range 1 6 and* step = int_range 2 3 in
    let* ns =
      oneofl
        [ Array.init len (fun i -> lo + i);
          Array.init len (fun i -> lo + (step * i));
          Array.init len (fun i -> lo + len - 1 - i);
          Array.make len lo ]
    in
    oneof
      [ map (fun r -> Q.N_sweep { ns; r }) (oneofa r_pool);
        map2 (fun ns r -> Q.N_sweep { ns; r })
          (array_repeat len (int_range 1 10))
          (oneofa r_pool);
        map2 (fun n r -> Q.Point { n; r }) (int_range 1 10) (oneofa r_pool);
        map2 (fun n rs -> Q.R_sweep { n; rs }) (int_range 1 10)
          (array_size (int_range 1 6) (oneofa r_pool)) ])

let runs_plans_gen =
  QCheck.Gen.(
    let* scenarios = scenarios_gen in
    let r_pool = [| 0.; -0.; 0.5; 2. |] in
    array_size (int_range 1 10)
      (let* scenario = oneofa scenarios and* domain = runs_domain_gen r_pool in
       let* quantity =
         oneofl
           [ Q.Mean_cost; Q.Error_probability; Q.Log10_error; Q.Cost_variance;
             Q.Latency_mean ]
       in
       return
         (Engine.Planner.plan
            { Q.quantity; scenario; domain; accuracy = Q.Exact })))

(* [Batch.of_plans] holds every plan's points as maximal runs, read
   back equal to [Plan.points] (r by its bits), and the batch's values
   are bitwise those of each plan alone. *)
let prop_runs_hold_points =
  QCheck.Test.make ~name:"of_plans runs = Plan.points, values = each alone"
    ~count:100
    (QCheck.make
       ~print:(fun plans ->
         String.concat "; "
           (Array.to_list
              (Array.map
                 (fun (pl : Engine.Plan.t) ->
                   String.concat ","
                     (Array.to_list
                        (Array.map
                           (fun (n, r) -> Printf.sprintf "(%d,%h)" n r)
                           pl.Engine.Plan.points)))
                 plans)))
       runs_plans_gen)
    (fun plans ->
      let b = Engine.Batch.of_plans plans in
      Array.iteri
        (fun p (pl : Engine.Plan.t) ->
          let got = points_of_runs b p in
          if
            List.map (fun (n, r) -> (n, bits r)) got
            <> List.map (fun (n, r) -> (n, bits r)) (Array.to_list pl.points)
          then QCheck.Test.fail_reportf "plan %d: runs read back other points" p;
          for t = b.run.(p) + 1 to b.run.(p + 1) - 1 do
            if
              b.n_lo.(t) = b.n_lo.(t - 1) + b.off.(t) - b.off.(t - 1)
              && bits b.r.(t) = bits b.r.(t - 1)
            then QCheck.Test.fail_reportf "plan %d: run %d is not maximal" p t
          done)
        plans;
      let answers = Engine.Executor.run_batch plans in
      Array.iteri
        (fun p a ->
          if not (points_eq a (Engine.Executor.run_batch [| plans.(p) |]).(0))
          then QCheck.Test.fail_reportf "plan %d differs from its plan alone" p)
        answers;
      true)

let test_signed_zeros_apart () =
  (* r = 0 and r = -0 in one batch: an n-sweep at each (n = 1, 2,
     then n = 3, 4) and an r-sweep over both at n = 1.  Each run keeps
     its r's bits, and the kernel scans the two signs as two columns,
     so the -0 sweep pays its own scan from n = 1. *)
  let fig2 = List.assoc "figure2" Zeroconf.Params.presets in
  let plans =
    Array.map
      (fun (ns, r) -> Engine.Planner.plan (Q.n_sweep Q.Mean_cost fig2 ~ns ~r))
      [| ([| 1; 2 |], 0.); ([| 3; 4 |], -0.) |]
  and rs = Engine.Planner.plan (Q.r_sweep Q.Mean_cost fig2 ~n:1 ~rs:[| 0.; -0. |]) in
  let b = Engine.Batch.of_plans (Array.append plans [| rs |]) in
  Alcotest.(check int) "four runs" 4 b.runs;
  Alcotest.(check (list int64)) "r per run, by its bits"
    (List.map bits [ 0.; -0.; 0.; -0. ])
    (List.init 4 (fun t -> bits b.r.(t)));
  let answers = Engine.Executor.run_batch plans in
  Alcotest.(check (list int)) "the -0 column scans from n = 1" [ 2; 4 ]
    (Array.to_list (Array.map (fun (a : A.t) -> a.A.evals) answers))

(* an adapter batch holds a run per n-sweep, not a slot per point *)
let test_runs_sized_to_runs () =
  let fig2 = List.assoc "figure2" Zeroconf.Params.presets
  and ns = Array.init 512 (fun i -> i + 1) in
  let b =
    Engine.Batch.of_plans
      (Array.map
         (fun r -> Engine.Planner.plan (Q.n_sweep Q.Mean_cost fig2 ~ns ~r))
         [| 0.5; 1.; 2. |])
  in
  Alcotest.(check (list int)) "runs, run slots, points" [ 3; 3; 1536 ]
    [ b.runs; Array.length b.n_lo; b.points ]

(* -- deterministic corners the generator may under-sample ----------- *)

let fig2 = List.assoc "figure2" Zeroconf.Params.presets

let test_duplicate_plans_in_one_batch () =
  (* the same query twice in one batch: both answers must carry the
     full value; the second may not be silently elided *)
  let q = Q.n_sweep Q.Mean_cost fig2 ~ns:[| 1; 2; 3; 4 |] ~r:2. in
  let answers = Engine.Executor.eval_batch [| q; q |] in
  Alcotest.(check int) "two answers" 2 (Array.length answers);
  Alcotest.(check bool) "identical points" true (points_eq answers.(0) answers.(1))

let test_repeats_cost_no_kernel_evals () =
  (* a query repeated in one batch is evaluated again, bitwise equal
     to its first occurrence; on the kernel its stops sit on the first
     occurrence's columns, so the repeat costs no scan step *)
  let sweep = Q.r_sweep Q.Mean_cost fig2 ~n:3 ~rs:[| 0.5; 1.; 2. |]
  and point = Q.point Q.Log10_error fig2 ~n:5 ~r:0.7 in
  let answers = Engine.Executor.eval_batch [| sweep; point; sweep; point; sweep |] in
  List.iter
    (fun (first, repeat) ->
      Alcotest.(check bool)
        (Printf.sprintf "answer %d bitwise equals answer %d" repeat first)
        true
        (points_eq answers.(first) answers.(repeat));
      Alcotest.(check int)
        (Printf.sprintf "answer %d costs no evals" repeat)
        0 answers.(repeat).A.evals)
    [ (0, 2); (1, 3); (0, 4) ];
  Alcotest.(check int) "the sweep scans three columns to n = 3" 9
    answers.(0).A.evals;
  Alcotest.(check int) "the point scans its column to n = 5" 5
    answers.(1).A.evals

let test_forced_routes_apart () =
  (* one batch over three routes: each answer comes from its own
     route, back in input order *)
  let q = Q.point Q.Mean_cost fig2 ~n:4 ~r:2. in
  let plans =
    Array.map
      (fun backend -> Engine.Planner.plan ~backend q)
      [| "dtmc"; "kernel"; "analytic"; "kernel" |]
  in
  let answers = Engine.Executor.run_batch plans in
  Alcotest.(check (list string)) "routes in input order"
    [ "dtmc"; "kernel"; "analytic"; "kernel" ]
    (Array.to_list (Array.map (fun (a : A.t) -> a.A.backend) answers));
  Alcotest.(check int) "the kernel's repeat costs nothing" 0
    answers.(3).A.evals

(* Two scenarios whose step delays differ in the seventh decimal print
   the same distribution name (%g) and survive every small abscissa
   alike, yet at n = 3, r = 1.5 the horizon 3r = 4.5 falls on opposite
   sides of the step: pi_3 is 0 for one and 1 for the other.  Neither
   the kernel's column grouping nor the DTMC route's build sharing may
   treat them as one scenario. *)
let near_twins () =
  let step delay =
    Zeroconf.Params.v ~name:"step"
      ~delay:(Dist.Families.deterministic ~delay ())
      ~q:fig2.Zeroconf.Params.q ~probe_cost:fig2.Zeroconf.Params.probe_cost
      ~error_cost:fig2.Zeroconf.Params.error_cost
  in
  (step 4.5, step 4.5000001)

let twin_query p = Q.point Q.Mean_cost p ~n:3 ~r:1.5

let scalar_of (a : A.t) =
  match a.A.values with
  | A.Scalars [| v |] -> v
  | _ -> Alcotest.fail "expected one scalar point"

let test_near_twins_apart_in_batch () =
  let a, b = near_twins () in
  let expected p = Zeroconf.Cost.mean p ~n:3 ~r:1.5 in
  Alcotest.(check bool) "the closed forms differ" false (expected a = expected b);
  (* the kernel and the analytic route read the closed forms bit for
     bit, the DTMC route solves its own chain *)
  List.iter
    (fun (backend, tol) ->
      let answers =
        Engine.Executor.run_batch
          (Array.map (Engine.Planner.plan ~backend) [| twin_query a; twin_query b |])
      in
      Alcotest.(check (float tol)) (backend ^ ": first scenario") (expected a)
        (scalar_of answers.(0));
      Alcotest.(check (float tol)) (backend ^ ": second scenario") (expected b)
        (scalar_of answers.(1)))
    [ ("kernel", 0.); ("analytic", 0.); ("dtmc", 1e-9) ];
  (* at one seed the twins draw the same delays: a reply at 4.5 comes
     within the n r = 4.5 listening time and one just past it does
     not, so the means differ unless one stream serves both *)
  let sampled p =
    Engine.Planner.plan ~backend:"mc"
      (Q.point ~accuracy:(Q.Sampled { trials = 2000; seed = 5 }) Q.Mean_cost p
         ~n:3 ~r:1.5)
  in
  let mean (x : A.t) =
    match x.A.values with
    | A.Intervals [| i |] -> i.A.mean
    | _ -> Alcotest.fail "expected one interval"
  in
  let answers = Engine.Executor.run_batch [| sampled a; sampled b |] in
  Alcotest.(check bool) "mc: the twins' means differ" false
    (bits (mean answers.(0)) = bits (mean answers.(1)));
  List.iteri
    (fun i p ->
      Alcotest.(check bool)
        (Printf.sprintf "mc: twin %d = its plan alone" i)
        true
        (values_eq answers.(i) (Engine.Executor.run_batch [| sampled p |]).(0)))
    [ a; b ]

let test_singleton_batch_matches_scalar_provenance () =
  let q = Q.n_sweep Q.Mean_cost fig2 ~ns:[| 1; 2; 3; 4 |] ~r:2. in
  let scalar = Engine.Executor.eval q in
  let batch = Engine.Executor.eval_batch [| q |] in
  Alcotest.(check string) "backend" scalar.A.backend batch.(0).A.backend;
  Alcotest.(check int) "evals" scalar.A.evals batch.(0).A.evals

(* -- Plan.key injectivity ---------------------------------------- *)

let key ?(route = Engine.Plan.Kernel) q = Engine.Plan.key (Engine.Plan.make ~route q)

let keys_differ what a b =
  if String.equal a b then Alcotest.failf "%s: both keys are %s" what a

let test_key_injective () =
  let point r = Q.point Q.Mean_cost fig2 ~n:4 ~r in
  keys_differ "r = 0 vs r = -0" (key (point 0.)) (key (point (-0.)));
  let x = 0.75 in
  Alcotest.(check string) "%g cannot tell x from its successor"
    (Printf.sprintf "%g" x)
    (Printf.sprintf "%g" (Float.succ x));
  keys_differ "x vs succ x" (key (point x)) (key (point (Float.succ x)));
  keys_differ "n-sweeps differing in one n"
    (key (Q.n_sweep Q.Mean_cost fig2 ~ns:[| 1; 2; 3; 10 |] ~r:2.))
    (key (Q.n_sweep Q.Mean_cost fig2 ~ns:[| 1; 2; 3; 11 |] ~r:2.));
  keys_differ "r-sweeps differing in one r"
    (key (Q.r_sweep Q.Mean_cost fig2 ~n:3 ~rs:[| 0.5; 1.; 1.5 |]))
    (key (Q.r_sweep Q.Mean_cost fig2 ~n:3 ~rs:[| 0.5; Float.succ 1.; 1.5 |]));
  let sampled seed = Q.Sampled { trials = 100; seed } in
  let accurate accuracy = Q.point ~accuracy Q.Mean_cost fig2 ~n:4 ~r:2. in
  keys_differ "exact vs sampled"
    (key ~route:Engine.Plan.Mc (accurate Q.Exact))
    (key ~route:Engine.Plan.Mc (accurate (sampled 1)));
  keys_differ "seed 1 vs seed -1"
    (key ~route:Engine.Plan.Mc (accurate (sampled 1)))
    (key ~route:Engine.Plan.Mc (accurate (sampled (-1))));
  let routes = Engine.Plan.[ Kernel; Analytic; Dtmc; Mc ] in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then
            keys_differ
              (Engine.Plan.route_name a ^ " vs " ^ Engine.Plan.route_name b)
              (key ~route:a (point 2.))
              (key ~route:b (point 2.)))
        routes)
    routes;
  Alcotest.(check string) "equal queries built apart"
    (key (Q.r_sweep Q.Error_probability fig2 ~n:3 ~rs:[| 0.; 0.5; 1. |]))
    (key (Q.r_sweep Q.Error_probability fig2 ~n:3 ~rs:[| 0.; 0.5; 1. |]))

(* quantity i at (n, rs.(j)) sits at (i |rs| + j) (hi - lo + 1) + n -
   lo, on every route the quantities take, bitwise equal to each n-sweep
   alone and, for Eqs. 3 and 4, to the closed forms; ranges from 1, from
   past 1, and a single point *)
let test_n_sweeps_layout () =
  let quantities =
    [| Q.Mean_cost; Q.Error_probability; Q.Log10_error; Q.Cost_variance |]
  and rs = [| 0.; 0.4; 2.5 |] in
  let closed_form quantity ~n ~r =
    match quantity with
    | Q.Mean_cost -> Some (Zeroconf.Cost.mean fig2 ~n ~r)
    | Q.Error_probability ->
        Some (Zeroconf.Reliability.error_probability fig2 ~n ~r)
    | Q.Log10_error ->
        Some (Zeroconf.Reliability.log10_error_probability fig2 ~n ~r)
    | Q.Cost_variance | Q.Latency_mean -> None
  in
  List.iter
    (fun (lo, hi) ->
      let v = Engine.Executor.n_sweeps quantities fig2 ~lo ~hi rs
      and len = hi - lo + 1 in
      Alcotest.(check int) "one value per point"
        (Array.length quantities * Array.length rs * len)
        (Array.length v);
      Array.iteri
        (fun i quantity ->
          Array.iteri
            (fun j r ->
              let alone =
                Engine.Executor.eval
                  (Q.n_sweep quantity fig2 ~ns:(Array.init len (( + ) lo)) ~r)
              in
              for n = lo to hi do
                let got = v.((((i * Array.length rs) + j) * len) + n - lo) in
                let check what want =
                  if bits got <> bits want then
                    Alcotest.failf "%s at (n = %d, r = %g) in %d .. %d: %h, %s %h"
                      (Q.quantity_name quantity) n r lo hi got what want
                in
                check "alone" (A.scalar alone (n - lo));
                Option.iter (check "closed form") (closed_form quantity ~n ~r)
              done)
            rs)
        quantities)
    [ (1, 6); (3, 9); (5, 5) ]

let test_n_sweeps_refusals () =
  Alcotest.check_raises "no route"
    (Invalid_argument "Executor.n_sweeps: no route serves cost-variance")
    (fun () ->
      ignore
        (Engine.Executor.n_sweeps [| Q.Cost_variance |] fig2 ~lo:1 ~hi:513
           [| 1. |]));
  Alcotest.check_raises "bad r"
    (Invalid_argument "Query: r = nan not non-negative and finite") (fun () ->
      ignore
        (Engine.Executor.n_sweeps [| Q.Mean_cost |] fig2 ~lo:1 ~hi:4 [| nan |]));
  Alcotest.check_raises "empty range"
    (Invalid_argument "Executor.n_sweeps: empty n range") (fun () ->
      ignore (Engine.Executor.n_sweeps [| Q.Mean_cost |] fig2 ~lo:5 ~hi:4 [| 1. |]));
  Alcotest.check_raises "n below 1"
    (Invalid_argument "Query: n = 0 < 1") (fun () ->
      ignore (Engine.Executor.n_sweeps [| Q.Mean_cost |] fig2 ~lo:0 ~hi:4 [| 1. |]));
  Alcotest.check_raises "overflowing attempt cost"
    (Invalid_argument
       "Query: mean-cost at n = 4, r = 1e+308: the largest attempt cost n (r + \
        c) + E = inf is not finite") (fun () ->
      ignore
        (Engine.Executor.n_sweeps [| Q.Error_probability; Q.Mean_cost |] fig2
           ~lo:4 ~hi:4 [| 1e308 |]))

let () =
  Alcotest.run "executor"
    [ ( "batch equivalence",
        [ QCheck_alcotest.to_alcotest prop_batch_equals_scalar;
          QCheck_alcotest.to_alcotest prop_kernel_evals_sum;
          QCheck_alcotest.to_alcotest prop_columnar_equals_plans;
          QCheck_alcotest.to_alcotest prop_runs_hold_points;
          Alcotest.test_case "-0 and 0 never share a run" `Quick
            test_signed_zeros_apart;
          Alcotest.test_case "run arrays sized to the runs" `Quick
            test_runs_sized_to_runs;
          Alcotest.test_case "duplicate plans in one batch" `Quick
            test_duplicate_plans_in_one_batch;
          Alcotest.test_case "repeats cost no kernel evals" `Quick
            test_repeats_cost_no_kernel_evals;
          Alcotest.test_case "forced routes kept apart" `Quick
            test_forced_routes_apart;
          Alcotest.test_case "near-twin scenarios apart in one batch" `Quick
            test_near_twins_apart_in_batch;
          Alcotest.test_case "singleton batch = scalar provenance" `Quick
            test_singleton_batch_matches_scalar_provenance ] );
      ( "n-sweep grid",
        [ Alcotest.test_case "layout = each n-sweep alone" `Quick
            test_n_sweeps_layout;
          Alcotest.test_case "refusals" `Quick test_n_sweeps_refusals ] );
      ( "plan key",
        [ Alcotest.test_case "injective" `Quick test_key_injective ] ) ]
