let time_ns f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let t1 = Unix.gettimeofday () in
  (x, Int64.of_float (Float.max 0. ((t1 -. t0) *. 1e9)))

let answer ~backend ~evals ~wall_ns (pl : Plan.t) values =
  { Answer.backend; evals; wall_ns; points = pl.points; values }

let not_sampled = function Query.Sampled _ -> false | Query.Exact -> true

(* [serves] is a backend's [supports] on a plan's parts *)
let check_batch ~name ~route ~serves (plans : Plan.t array) =
  Array.iter
    (fun (pl : Plan.t) ->
      if pl.route <> route then
        invalid_arg
          (Printf.sprintf "Backends.%s: plan routed to %s" name
             (Plan.route_name pl.route));
      if not (serves pl) then
        invalid_arg (Printf.sprintf "Backends.%s: unsupported query" name))
    plans

(* Index every output point of every plan by a grouping key; groups keep
   first-appearance order so batch execution is deterministic.  A group
   is its first point, as (plan, point index), and every (plan index,
   point index) that reads it. *)
let group_points ~key (plans : Plan.t array) =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  Array.iteri
    (fun pi (pl : Plan.t) ->
      (* consecutive points of a plan usually share a key (an n-sweep
         is one column), so remember the last group and skip the table *)
      let last = ref None in
      Array.iteri
        (fun qi (n, r) ->
          let k = key pl qi n r in
          let g =
            match !last with
            | Some (lk, g) when lk = k -> g
            | _ ->
                let g =
                  match Hashtbl.find_opt tbl k with
                  | Some g -> g
                  | None ->
                      let g = ref [] in
                      Hashtbl.add tbl k g;
                      order := (pl, qi, g) :: !order;
                      g
                in
                last := Some (k, g);
                g
          in
          g := (pi, qi) :: !g)
        pl.points)
    plans;
  Array.of_list
    (List.rev_map
       (fun (pl, qi, g) -> (pl, qi, Array.of_list (List.rev !g)))
       !order)

module Analytic = struct
  let name = "analytic"

  let serves quantity accuracy =
    not_sampled accuracy
    &&
    match quantity with
    | Query.Mean_cost | Query.Error_probability | Query.Log10_error
    | Query.Latency_mean ->
        true
    | Query.Cost_variance -> false

  let supports (q : Query.t) = serves q.quantity q.accuracy

  let eval1 (pl : Plan.t) n r =
    let p = pl.scenario in
    match pl.quantity with
    | Query.Mean_cost -> Zeroconf.Cost.mean p ~n ~r
    | Query.Error_probability -> Zeroconf.Reliability.error_probability p ~n ~r
    | Query.Log10_error -> Zeroconf.Reliability.log10_error_probability p ~n ~r
    | Query.Latency_mean ->
        Zeroconf.Latency.mean (Zeroconf.Latency.periods p ~n ~r)
    | Query.Cost_variance ->
        invalid_arg "Backends.Analytic: cost variance is DRM-only"

  (* Every point of the batch in one flat array, so the fan-out
     balances across plans of uneven size; each plan's values are then
     sliced back out in order. *)
  let eval_batch (plans : Plan.t array) =
    check_batch ~name:"Analytic" ~route:Plan.Analytic
      ~serves:(fun pl -> serves pl.quantity pl.accuracy)
      plans;
    let flat =
      Array.concat
        (Array.to_list
           (Array.map
              (fun (pl : Plan.t) ->
                Array.map (fun (n, r) -> (pl, n, r)) pl.points)
              plans))
    in
    let values, wall_ns =
      time_ns (fun () ->
          Exec.Parallel.map (fun (pl, n, r) -> eval1 pl n r) flat)
    in
    let lo = ref 0 in
    Array.map
      (fun (pl : Plan.t) ->
        let len = Array.length pl.points in
        let v = Array.sub values !lo len in
        lo := !lo + len;
        answer ~backend:name ~evals:len ~wall_ns pl (Answer.Scalars v))
      plans

  let eval (q : Query.t) =
    if not (supports q) then invalid_arg "Backends.Analytic: unsupported query";
    (eval_batch [| Plan.make ~route:Plan.Analytic q |]).(0)
end

module Kernel = struct
  let name = "kernel"

  let serves quantity accuracy =
    not_sampled accuracy
    &&
    match quantity with
    | Query.Mean_cost | Query.Error_probability | Query.Log10_error -> true
    | Query.Cost_variance | Query.Latency_mean -> false

  let supports (q : Query.t) = serves q.quantity q.accuracy

  let read quantity k =
    match quantity with
    | Query.Mean_cost -> Zeroconf.Kernel.cost k
    | Query.Error_probability -> Zeroconf.Kernel.error_probability k
    | Query.Log10_error -> Zeroconf.Kernel.log10_error k
    | _ -> invalid_arg "Backends.Kernel: unsupported quantity"

  (* Column ids, keyed by (scenario id, bits of r): bits, so -0 and 0
     are two columns.  Monomorphic hash and equality; the polymorphic
     ones walk the key generically and cost more than a one-stop
     column's scan. *)
  module Column_key = struct
    type t = { sid : int; bits : int64 }

    let equal a b = a.sid = b.sid && Int64.equal a.bits b.bits

    (* fold the exponent bits into the low ones the table indexes by *)
    let hash k =
      let x = Int64.to_int k.bits lxor k.sid in
      let x = (x lxor (x lsr 32)) * 0x2545F4914F6CDD1D in
      (x lxor (x lsr 29)) land max_int
  end

  module Columns = Hashtbl.Make (Column_key)

  (* A stop of a several-run column, packed into one int: its run in
     the high bits, its index in the plan in the low [qi_bits].  A plan
     has at most [Query.max_points] points, so the index fits. *)
  let qi_bits = 20
  let qi_mask = (1 lsl qi_bits) - 1
  let () = assert (Query.max_points <= 1 lsl qi_bits)

  let nondecreasing (pts : (int * float) array) lo hi =
    let ok = ref true in
    for qi = lo + 1 to hi - 1 do
      if fst pts.(qi) < fst pts.(qi - 1) then ok := false
    done;
    !ok

  (* One streaming cursor per (scenario, r) column, amortized across
     every plan in the batch.  The cursor state at n does not depend on
     where reads happen, so merging plans' stops onto a shared scan is
     bitwise identical to running each plan alone.  Columns run one
     after another: a column costs microseconds, less than handing it
     to another domain.

     The batch is indexed by runs: maximal runs of bit-equal r within
     a plan, numbered in batch order, each in one column.  The column
     table is probed once per run, and a stable counting sort by column
     lists each column's runs in batch order.  A column of one run with
     nondecreasing n (every point, every ascending n-sweep) scans
     straight into its plan's value array.  Any other column gathers
     its stops, packed as above, in batch order, stable-sorts them by n
     if they are out of order, and so scans in (n, pi, qi) order.  An
     advance between consecutive stops is charged to the later stop's
     run, so per-plan evals sum to the scan work actually done. *)
  let eval_batch (plans : Plan.t array) =
    check_batch ~name:"Kernel" ~route:Plan.Kernel
      ~serves:(fun pl -> serves pl.quantity pl.accuracy)
      plans;
    let same_r (pts : (int * float) array) a b =
      Int64.equal (Int64.bits_of_float (snd pts.(a)))
        (Int64.bits_of_float (snd pts.(b)))
    in
    let nruns = ref 0 in
    Array.iter
      (fun (pl : Plan.t) ->
        for qi = 0 to Array.length pl.points - 1 do
          if qi = 0 || not (same_r pl.points (qi - 1) qi) then incr nruns
        done)
      plans;
    let nruns = !nruns in
    let run_plan = Array.make nruns 0
    and run_lo = Array.make nruns 0
    and run_hi = Array.make nruns 0
    and run_col = Array.make nruns 0 in
    let table = Columns.create nruns in
    let ncols = ref 0 and t = ref 0 in
    Array.iteri
      (fun pi (pl : Plan.t) ->
        let pts = pl.points in
        let len = Array.length pts in
        let lo = ref 0 in
        while !lo < len do
          let hi = ref (!lo + 1) in
          while !hi < len && same_r pts !lo !hi do
            incr hi
          done;
          let key =
            { Column_key.sid = pl.scenario_id;
              bits = Int64.bits_of_float (snd pts.(!lo)) }
          in
          let c =
            match Columns.find_opt table key with
            | Some c -> c
            | None ->
                let c = !ncols in
                incr ncols;
                Columns.add table key c;
                c
          in
          run_plan.(!t) <- pi;
          run_lo.(!t) <- !lo;
          run_hi.(!t) <- !hi;
          run_col.(!t) <- c;
          incr t;
          lo := !hi
        done)
      plans;
    let ncols = !ncols in
    (* stable counting sort of runs by column: seg.(c) .. seg.(c + 1) - 1 *)
    let seg = Array.make (ncols + 1) 0 in
    Array.iter (fun c -> seg.(c + 1) <- seg.(c + 1) + 1) run_col;
    for c = 1 to ncols do
      seg.(c) <- seg.(c) + seg.(c - 1)
    done;
    let order = Array.make nruns 0 in
    let fill = Array.sub seg 0 ncols in
    Array.iteri
      (fun t c ->
        order.(fill.(c)) <- t;
        fill.(c) <- fill.(c) + 1)
      run_col;
    let values =
      Array.map
        (fun (pl : Plan.t) -> Array.create_float (Array.length pl.points))
        plans
    in
    let run_work = Array.make nruns 0 in
    let run_column c =
      let lo = seg.(c) and hi = seg.(c + 1) in
      (* the column's first run gives its scenario and r *)
      let t0 = order.(lo) in
      let pl0 = plans.(run_plan.(t0)) in
      let k =
        Zeroconf.Kernel.create pl0.scenario
          ~r:(snd pl0.points.(run_lo.(t0)))
      in
      if hi - lo = 1 && nondecreasing pl0.points run_lo.(t0) run_hi.(t0)
      then begin
        let quantity = pl0.quantity and pts = pl0.points
        and v = values.(run_plan.(t0)) in
        for qi = run_lo.(t0) to run_hi.(t0) - 1 do
          Zeroconf.Kernel.advance_to k ~n:(fst pts.(qi));
          v.(qi) <- read quantity k
        done;
        run_work.(t0) <- Zeroconf.Kernel.n k
      end
      else begin
        let m = ref 0 in
        for j = lo to hi - 1 do
          let t = order.(j) in
          m := !m + run_hi.(t) - run_lo.(t)
        done;
        let stops = Array.make !m 0 and s = ref 0 in
        for j = lo to hi - 1 do
          let t = order.(j) in
          for qi = run_lo.(t) to run_hi.(t) - 1 do
            stops.(!s) <- (t lsl qi_bits) lor qi;
            incr s
          done
        done;
        let n_of stop =
          fst plans.(run_plan.(stop lsr qi_bits)).Plan.points.(stop land qi_mask)
        in
        let sorted = ref true in
        for j = 1 to !m - 1 do
          if n_of stops.(j) < n_of stops.(j - 1) then sorted := false
        done;
        if not !sorted then
          Array.stable_sort (fun a b -> Int.compare (n_of a) (n_of b)) stops;
        Array.iter
          (fun stop ->
            let t = stop lsr qi_bits and qi = stop land qi_mask in
            let pi = run_plan.(t) in
            let n = fst plans.(pi).Plan.points.(qi) in
            run_work.(t) <- run_work.(t) + n - Zeroconf.Kernel.n k;
            Zeroconf.Kernel.advance_to k ~n;
            values.(pi).(qi) <- read plans.(pi).Plan.quantity k)
          stops
      end
    in
    let (), wall_ns =
      time_ns (fun () ->
          for c = 0 to ncols - 1 do
            run_column c
          done)
    in
    let evals = Array.make (Array.length plans) 0 in
    Array.iteri
      (fun t w -> evals.(run_plan.(t)) <- evals.(run_plan.(t)) + w)
      run_work;
    Array.mapi
      (fun pi pl ->
        answer ~backend:name ~evals:evals.(pi) ~wall_ns pl
          (Answer.Scalars values.(pi)))
      plans

  let eval (q : Query.t) =
    if not (supports q) then invalid_arg "Backends.Kernel: unsupported query";
    (eval_batch [| Plan.make ~route:Plan.Kernel q |]).(0)
end

module Dtmc = struct
  let name = "dtmc"

  (* An input-size guard, not a numerical limit: a point builds a
     labelled chain of n + 3 states and eliminates it in O(n log n), so
     an ns=1:N sweep costs O(N^2).  512 spans the n range the kernel is
     swept over and checked against; beyond it the kernel answers mean
     cost and error, and cost variance has no route. *)
  let max_n = 512

  let serves quantity accuracy =
    not_sampled accuracy
    &&
    match quantity with
    | Query.Mean_cost | Query.Error_probability | Query.Log10_error
    | Query.Cost_variance ->
        true
    | Query.Latency_mean -> false

  let fits points = Array.for_all (fun (n, _) -> n <= max_n) points

  let supports (q : Query.t) =
    serves q.quantity q.accuracy && fits (Query.points q)

  let value_of drm = function
    | Query.Mean_cost -> Zeroconf.Drm.mean_cost drm
    | Query.Error_probability -> Zeroconf.Drm.error_probability drm
    | Query.Log10_error -> Float.log10 (Zeroconf.Drm.error_probability drm)
    | Query.Cost_variance -> Zeroconf.Drm.cost_variance drm
    | Query.Latency_mean -> invalid_arg "Backends.Dtmc: no latency route"

  (* One matrix build per distinct (scenario, n, r) in the whole batch;
     every requesting point reads its own quantity from the shared
     solve.  The build is attributed to the point that requested it
     first; later readers of the same matrix cost nothing. *)
  let eval_batch (plans : Plan.t array) =
    check_batch ~name:"Dtmc" ~route:Plan.Dtmc
      ~serves:(fun pl -> serves pl.quantity pl.accuracy && fits pl.points)
      plans;
    let builds =
      group_points plans ~key:(fun (pl : Plan.t) _qi n r ->
          (pl.scenario_id, n, Int64.bits_of_float r))
    in
    let run_build ((pl0 : Plan.t), qi0, readers) =
      let n, r = pl0.points.(qi0) in
      let drm = Zeroconf.Drm.build pl0.scenario ~n ~r in
      Array.mapi
        (fun i (pi, qi) ->
          ( pi,
            qi,
            value_of drm plans.(pi).Plan.quantity,
            if i = 0 then 1 else 0 ))
        readers
    in
    let results, wall_ns =
      time_ns (fun () -> Exec.Parallel.map run_build builds)
    in
    let values =
      Array.map (fun (pl : Plan.t) -> Array.make (Array.length pl.points) 0.) plans
    in
    let evals = Array.make (Array.length plans) 0 in
    Array.iter
      (Array.iter (fun (pi, qi, v, work) ->
           values.(pi).(qi) <- v;
           evals.(pi) <- evals.(pi) + work))
      results;
    Array.mapi
      (fun pi (pl : Plan.t) ->
        answer ~backend:name ~evals:evals.(pi) ~wall_ns pl
          (Answer.Scalars values.(pi)))
      plans

  let eval (q : Query.t) =
    if not (supports q) then invalid_arg "Backends.Dtmc: unsupported query";
    (eval_batch [| Plan.make ~route:Plan.Dtmc q |]).(0)
end

module Mc = struct
  let name = "mc"

  let serves quantity accuracy =
    (match accuracy with Query.Sampled _ -> true | Query.Exact -> false)
    &&
    match quantity with
    | Query.Mean_cost | Query.Error_probability | Query.Latency_mean -> true
    | Query.Log10_error | Query.Cost_variance -> false

  let supports (q : Query.t) = serves q.quantity q.accuracy

  let occupied_of (p : Zeroconf.Params.t) =
    let size = Zeroconf.Params.address_space_size in
    let m = int_of_float (Float.round (p.q *. float_of_int size)) in
    max 0 (min (size - 1) m)

  let accuracy_of (pl : Plan.t) =
    match pl.accuracy with
    | Query.Sampled { trials; seed } -> (trials, seed)
    | _ -> assert false (* supports demands Sampled *)

  (* The trials of point [index] of a plan: an independent
     deterministic stream per sweep point, so sweeps can fan out over
     the pool without sharing an rng. *)
  let run_stream (pl : Plan.t) index =
    let p = pl.scenario in
    let trials, seed = accuracy_of pl in
    let n, r = pl.points.(index) in
    let rng = Numerics.Rng.create (seed + (7919 * index)) in
    let config =
      Netsim.Newcomer.drm_config ~n ~r ~probe_cost:p.probe_cost
        ~error_cost:p.error_cost
    in
    Netsim.Scenario.run_aggregate ~delay:p.delay ~occupied:(occupied_of p)
      ~config ~trials ~rng ()

  let read sample quantity =
    let { Netsim.Metrics.mean; ci_lo; ci_hi } =
      match quantity with
      | Query.Mean_cost -> Netsim.Metrics.cost_interval sample
      | Query.Error_probability -> Netsim.Metrics.collision_interval sample
      | Query.Latency_mean -> Netsim.Metrics.config_time_interval sample
      | _ -> invalid_arg "Backends.Mc: unsupported quantity"
    in
    { Answer.mean; ci_lo; ci_hi }

  (* One run per sampling stream in the whole batch: points that agree
     on scenario (interned, so physically the same), n, the bits of r,
     trials, seed and stream index draw the same outcomes, so they
     share one run and each reads its own quantity from it.  A stream
     is never merged with another, so a batch is bitwise the same as
     evaluating each plan alone.  An answer's evals stay trials x
     points: the sample size it rests on, shared or not. *)
  let eval_batch (plans : Plan.t array) =
    check_batch ~name:"Mc" ~route:Plan.Mc
      ~serves:(fun pl -> serves pl.quantity pl.accuracy)
      plans;
    let streams =
      group_points plans ~key:(fun (pl : Plan.t) qi n r ->
          let trials, seed = accuracy_of pl in
          (pl.scenario_id, n, Int64.bits_of_float r, trials, seed, qi))
    in
    let run ((pl0 : Plan.t), index, readers) =
      let sample = run_stream pl0 index in
      Array.map
        (fun (pi, qi) -> (pi, qi, read sample plans.(pi).Plan.quantity))
        readers
    in
    let results, wall_ns =
      time_ns (fun () -> Exec.Parallel.map run streams)
    in
    let unset = { Answer.mean = 0.; ci_lo = 0.; ci_hi = 0. } in
    let values =
      Array.map (fun (pl : Plan.t) -> Array.make (Array.length pl.points) unset)
        plans
    in
    Array.iter
      (Array.iter (fun (pi, qi, v) -> values.(pi).(qi) <- v))
      results;
    Array.mapi
      (fun pi (pl : Plan.t) ->
        let trials, _ = accuracy_of pl in
        answer ~backend:name
          ~evals:(trials * Array.length pl.points)
          ~wall_ns pl (Answer.Intervals values.(pi)))
      plans

  let eval (q : Query.t) =
    if not (supports q) then invalid_arg "Backends.Mc: unsupported query";
    (eval_batch [| Plan.make ~route:Plan.Mc q |]).(0)
end
