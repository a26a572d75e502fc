let time_ns f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let t1 = Unix.gettimeofday () in
  (x, Int64.of_float (Float.max 0. ((t1 -. t0) *. 1e9)))

let answer ~backend ~evals ~wall_ns points =
  { Answer.backend; evals; wall_ns; cached = false; points }

let scalar_points pts values =
  Array.map2 (fun (n, r) v -> { Answer.n; r; value = Answer.Scalar v }) pts values

let not_sampled (q : Query.t) =
  match q.accuracy with Query.Sampled _ -> false | _ -> true

let check_batch ~name ~route ~supports (plans : Plan.t array) =
  Array.iter
    (fun (pl : Plan.t) ->
      if pl.route <> route then
        invalid_arg
          (Printf.sprintf "Backends.%s: plan routed to %s" name
             (Plan.route_name pl.route));
      if not (supports pl.query) then
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

  let supports (q : Query.t) =
    not_sampled q
    &&
    match q.quantity with
    | Query.Mean_cost | Query.Error_probability | Query.Log10_error
    | Query.Latency_mean ->
        true
    | Query.Cost_variance -> false

  let eval1 (q : Query.t) n r =
    let p = q.scenario in
    match q.quantity with
    | Query.Mean_cost -> Zeroconf.Cost.mean p ~n ~r
    | Query.Error_probability -> Zeroconf.Reliability.error_probability p ~n ~r
    | Query.Log10_error -> Zeroconf.Reliability.log10_error_probability p ~n ~r
    | Query.Latency_mean ->
        Zeroconf.Latency.mean (Zeroconf.Latency.periods p ~n ~r)
    | Query.Cost_variance ->
        invalid_arg "Backends.Analytic: cost variance is DRM-only"

  let eval_batch ?pool (plans : Plan.t array) =
    check_batch ~name:"Analytic" ~route:Plan.Analytic ~supports plans;
    let groups =
      Array.map
        (fun (pl : Plan.t) -> Array.map (fun (n, r) -> (pl.query, n, r)) pl.points)
        plans
    in
    let values, wall_ns =
      time_ns (fun () ->
          Exec.Parallel.map_groups ?pool (fun (q, n, r) -> eval1 q n r) groups)
    in
    Array.mapi
      (fun pi (pl : Plan.t) ->
        answer ~backend:name ~evals:(Array.length pl.points) ~wall_ns
          (scalar_points pl.points values.(pi)))
      plans

  let eval ?pool (q : Query.t) =
    if not (supports q) then invalid_arg "Backends.Analytic: unsupported query";
    (eval_batch ?pool [| Plan.make ~route:Plan.Analytic q |]).(0)
end

module Kernel = struct
  let name = "kernel"

  let supports (q : Query.t) =
    not_sampled q
    &&
    match q.quantity with
    | Query.Mean_cost | Query.Error_probability | Query.Log10_error -> true
    | Query.Cost_variance | Query.Latency_mean -> false

  let read (q : Query.t) k =
    match q.quantity with
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

  (* One streaming cursor per (scenario, r) column, amortized across
     every plan in the batch.  The cursor state at n does not depend on
     where reads happen, so merging plans' stops onto a shared scan is
     bitwise identical to running each plan alone; columns fan out over
     the pool.

     Stops are numbered in batch order (stop = first.(pi) + qi) and
     kept in flat per-stop arrays: plan, n and column.  A stable
     counting sort by column gives each column one segment of [order];
     a segment out of n order is stable-sorted by n, so every column
     scans its stops in (n, pi, qi) order.  Advances between
     consecutive stops are charged to the later one, so per-plan evals
     sum to the scan work actually done.  A column writes only its own
     stops' value and work slots, so the result does not depend on the
     job count. *)
  let eval_batch ?pool (plans : Plan.t array) =
    check_batch ~name:"Kernel" ~route:Plan.Kernel ~supports plans;
    let nplans = Array.length plans in
    let first = Array.make (nplans + 1) 0 in
    (* runs of bit-equal r within a plan bound the column count *)
    let runs = ref 0 in
    Array.iteri
      (fun pi (pl : Plan.t) ->
        first.(pi + 1) <- first.(pi) + Array.length pl.points;
        let last = ref 0L in
        Array.iteri
          (fun qi (_n, r) ->
            let bits = Int64.bits_of_float r in
            if qi = 0 || not (Int64.equal bits !last) then incr runs;
            last := bits)
          pl.points)
      plans;
    let total = first.(nplans) in
    let stop_plan = Array.make total 0 in
    let stop_n = Array.make total 0 in
    let stop_col = Array.make total 0 in
    let table = Columns.create !runs in
    (* each column's first stop, which gives its scenario and r; a
       column starts at a run, so there are at most [runs] of them *)
    let col_first = Array.make !runs 0 in
    let ncols = ref 0 in
    Array.iteri
      (fun pi (pl : Plan.t) ->
        let s0 = first.(pi) in
        let last = ref 0L and c = ref (-1) in
        Array.iteri
          (fun qi (n, r) ->
            let s = s0 + qi in
            let bits = Int64.bits_of_float r in
            if !c < 0 || not (Int64.equal bits !last) then begin
              let key = { Column_key.sid = pl.scenario_id; bits } in
              (c :=
                 match Columns.find_opt table key with
                 | Some c -> c
                 | None ->
                     let c = !ncols in
                     col_first.(c) <- s;
                     incr ncols;
                     Columns.add table key c;
                     c);
              last := bits
            end;
            stop_plan.(s) <- pi;
            stop_n.(s) <- n;
            stop_col.(s) <- !c)
          pl.points)
      plans;
    let ncols = !ncols in
    (* stable counting sort by column: seg.(c) .. seg.(c + 1) - 1 *)
    let seg = Array.make (ncols + 1) 0 in
    Array.iter (fun c -> seg.(c + 1) <- seg.(c + 1) + 1) stop_col;
    for c = 1 to ncols do
      seg.(c) <- seg.(c) + seg.(c - 1)
    done;
    let order = Array.make total 0 in
    let fill = Array.sub seg 0 ncols in
    Array.iteri
      (fun s c ->
        order.(fill.(c)) <- s;
        fill.(c) <- fill.(c) + 1)
      stop_col;
    let values = Array.make total 0. in
    let works = Array.make total 0 in
    let run_column c =
      let lo = seg.(c) and hi = seg.(c + 1) in
      let sorted = ref true in
      for j = lo + 1 to hi - 1 do
        if stop_n.(order.(j)) < stop_n.(order.(j - 1)) then sorted := false
      done;
      if not !sorted then begin
        let part = Array.sub order lo (hi - lo) in
        Array.stable_sort (fun a b -> Int.compare stop_n.(a) stop_n.(b)) part;
        Array.blit part 0 order lo (hi - lo)
      end;
      let s0 = col_first.(c) in
      let pl0 = plans.(stop_plan.(s0)) in
      let r = snd pl0.points.(s0 - first.(stop_plan.(s0))) in
      let k = Zeroconf.Kernel.create pl0.query.Query.scenario ~r in
      for j = lo to hi - 1 do
        let s = order.(j) in
        let n = stop_n.(s) in
        works.(s) <- n - Zeroconf.Kernel.n k;
        Zeroconf.Kernel.advance_to k ~n;
        values.(s) <- read plans.(stop_plan.(s)).Plan.query k
      done
    in
    let (), wall_ns =
      time_ns (fun () ->
          Exec.Parallel.iter_chunks ?pool (Array.iter run_column)
            (Array.init ncols Fun.id))
    in
    Array.mapi
      (fun pi (pl : Plan.t) ->
        let s0 = first.(pi) in
        let evals = ref 0 in
        let points =
          Array.mapi
            (fun qi (n, r) ->
              evals := !evals + works.(s0 + qi);
              { Answer.n; r; value = Answer.Scalar values.(s0 + qi) })
            pl.points
        in
        answer ~backend:name ~evals:!evals ~wall_ns points)
      plans

  let eval ?pool (q : Query.t) =
    if not (supports q) then invalid_arg "Backends.Kernel: unsupported query";
    (eval_batch ?pool [| Plan.make ~route:Plan.Kernel q |]).(0)
end

module Dtmc = struct
  let name = "dtmc"

  (* the (I - Q)^-1 solve is cubic in the state count n + 3 *)
  let max_n = 512

  let supports (q : Query.t) =
    not_sampled q
    && (match q.quantity with
       | Query.Mean_cost | Query.Error_probability | Query.Log10_error
       | Query.Cost_variance ->
           true
       | Query.Latency_mean -> false)
    && Array.for_all (fun (n, _) -> n <= max_n) (Query.points q)

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
  let eval_batch ?pool (plans : Plan.t array) =
    check_batch ~name:"Dtmc" ~route:Plan.Dtmc ~supports plans;
    let builds =
      group_points plans ~key:(fun (pl : Plan.t) _qi n r ->
          (pl.scenario_id, n, Int64.bits_of_float r))
    in
    let run_build ((pl0 : Plan.t), qi0, readers) =
      let n, r = pl0.points.(qi0) in
      let drm = Zeroconf.Drm.build pl0.query.Query.scenario ~n ~r in
      Array.mapi
        (fun i (pi, qi) ->
          ( pi,
            qi,
            value_of drm plans.(pi).Plan.query.Query.quantity,
            if i = 0 then 1 else 0 ))
        readers
    in
    let results, wall_ns =
      time_ns (fun () -> Exec.Parallel.map ?pool run_build builds)
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
        answer ~backend:name ~evals:evals.(pi) ~wall_ns
          (scalar_points pl.points values.(pi)))
      plans

  let eval ?pool (q : Query.t) =
    if not (supports q) then invalid_arg "Backends.Dtmc: unsupported query";
    (eval_batch ?pool [| Plan.make ~route:Plan.Dtmc q |]).(0)
end

module Mc = struct
  let name = "mc"

  let supports (q : Query.t) =
    (match q.accuracy with Query.Sampled _ -> true | _ -> false)
    &&
    match q.quantity with
    | Query.Mean_cost | Query.Error_probability | Query.Latency_mean -> true
    | Query.Log10_error | Query.Cost_variance -> false

  let occupied_of (p : Zeroconf.Params.t) =
    let size = Zeroconf.Params.address_space_size in
    let m = int_of_float (Float.round (p.q *. float_of_int size)) in
    max 0 (min (size - 1) m)

  let accuracy_of (pl : Plan.t) =
    match pl.query.Query.accuracy with
    | Query.Sampled { trials; seed } -> (trials, seed)
    | _ -> assert false (* supports demands Sampled *)

  (* The trials of point [index] of a plan: an independent
     deterministic stream per sweep point, so sweeps can fan out over
     the pool without sharing an rng. *)
  let run_stream (pl : Plan.t) index =
    let p = pl.query.Query.scenario in
    let trials, seed = accuracy_of pl in
    let n, r = pl.points.(index) in
    let rng = Numerics.Rng.create (seed + (7919 * index)) in
    let config =
      Netsim.Newcomer.drm_config ~n ~r ~probe_cost:p.probe_cost
        ~error_cost:p.error_cost
    in
    Netsim.Scenario.run_aggregate ~delay:p.delay ~occupied:(occupied_of p)
      ~config ~trials ~rng ()

  let read outcomes (q : Query.t) =
    let { Netsim.Metrics.mean; ci_lo; ci_hi } =
      match q.quantity with
      | Query.Mean_cost -> Netsim.Metrics.cost_interval outcomes
      | Query.Error_probability -> Netsim.Metrics.collision_interval outcomes
      | Query.Latency_mean -> Netsim.Metrics.config_time_interval outcomes
      | _ -> invalid_arg "Backends.Mc: unsupported quantity"
    in
    Answer.Interval { mean; ci_lo; ci_hi }

  (* One run per sampling stream in the whole batch: points that agree
     on scenario (interned, so physically the same), n, the bits of r,
     trials, seed and stream index draw the same outcomes, so they
     share one run and each reads its own quantity from it.  A stream
     is never merged with another, so a batch is bitwise the same as
     evaluating each plan alone.  An answer's evals stay trials x
     points: the sample size it rests on, shared or not. *)
  let eval_batch ?pool (plans : Plan.t array) =
    check_batch ~name:"Mc" ~route:Plan.Mc ~supports plans;
    let streams =
      group_points plans ~key:(fun (pl : Plan.t) qi n r ->
          let trials, seed = accuracy_of pl in
          (pl.scenario_id, n, Int64.bits_of_float r, trials, seed, qi))
    in
    let run ((pl0 : Plan.t), index, readers) =
      let outcomes = run_stream pl0 index in
      Array.map
        (fun (pi, qi) -> (pi, qi, read outcomes plans.(pi).Plan.query))
        readers
    in
    let results, wall_ns =
      time_ns (fun () -> Exec.Parallel.map ?pool run streams)
    in
    let values =
      Array.map
        (fun (pl : Plan.t) ->
          Array.make (Array.length pl.points) (Answer.Scalar 0.))
        plans
    in
    Array.iter
      (Array.iter (fun (pi, qi, v) -> values.(pi).(qi) <- v))
      results;
    Array.mapi
      (fun pi (pl : Plan.t) ->
        let trials, _ = accuracy_of pl in
        let points =
          Array.map2
            (fun (n, r) value -> { Answer.n; r; value })
            pl.points values.(pi)
        in
        answer ~backend:name
          ~evals:(trials * Array.length pl.points)
          ~wall_ns points)
      plans

  let eval ?pool (q : Query.t) =
    if not (supports q) then invalid_arg "Backends.Mc: unsupported query";
    (eval_batch ?pool [| Plan.make ~route:Plan.Mc q |]).(0)
end
