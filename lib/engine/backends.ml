(* monotonic, so a duration is never negative *)
let time_ns f =
  let t0 = Monotonic_clock.now () in
  let x = f () in
  (x, Int64.sub (Monotonic_clock.now ()) t0)

(* IEEE bits of r, so -0 and 0 are two keys *)
let same_bits (x : float) (y : float) =
  Int64.bits_of_float x = Int64.bits_of_float y

(* fold the high bits (a float's exponent) into the low ones a table
   indexes by, then scramble *)
let mix h x =
  let h = h lxor x in
  let h = (h lxor (h lsr 32)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let hash_bits (x : float) = Int64.to_int (Int64.bits_of_float x)

(* Group the items [iter] yields (ints >= 0) by key, [hash x] and
   [same x y] on items: [None] when no two items share a key, else
   [Some (seg, order)], the groups numbered by first appearance and
   group g's items, in [iter] order, order.(seg.(g)) ..
   order.(seg.(g + 1) - 1).  Open addressing with linear probing, at
   most two thirds full: a slot holds the first item of its key, or -1.
   Only the table is built until a key repeats, and nothing is
   allocated per item. *)
let group iter ~hash ~same =
  let m = ref 0 in
  iter (fun _ -> incr m);
  let m = !m and cap = ref 16 in
  while !cap < m + (m / 2) do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 and slot = Array.make !cap (-1) in
  let rec find h x =
    let y = slot.(h) in
    if y < 0 || same y x then h else find ((h + 1) land mask) x
  in
  let slot_of x = find (hash x land mask) x in
  let shared = ref false in
  iter (fun x ->
      let h = slot_of x in
      if slot.(h) < 0 then slot.(h) <- x else shared := true);
  if not !shared then None
  else begin
    (* group ids by slot, and a stable counting sort of the items *)
    let gid = Array.make !cap (-1)
    and seg = Array.make (m + 1) 0
    and count = ref 0 in
    iter (fun x ->
        let h = slot_of x in
        if gid.(h) < 0 then begin
          gid.(h) <- !count;
          incr count
        end;
        seg.(gid.(h) + 1) <- seg.(gid.(h) + 1) + 1);
    for g = 1 to !count do
      seg.(g) <- seg.(g) + seg.(g - 1)
    done;
    let fill = Array.sub seg 0 !count and order = Array.make m 0 in
    iter (fun x ->
        let g = gid.(slot_of x) in
        order.(fill.(g)) <- x;
        fill.(g) <- fill.(g) + 1);
    Some (Array.sub seg 0 (!count + 1), order)
  end

(* The points of the plans routed to [route], in batch order: point j
   is (n.(j), r.(j)) of plan plan.(j), at offset at.(j) *)
type points = { at : int array; n : int array; r : float array; plan : int array }

let points_of (b : Batch.t) route =
  let m = ref 0 in
  for p = 0 to b.plans - 1 do
    if b.route.(p) = route then
      m := !m + Batch.first_point b (p + 1) - Batch.first_point b p
  done;
  let m = !m in
  let pt =
    { at = Array.make m 0; n = Array.make m 0; r = Array.create_float m;
      plan = Array.make m 0 }
  and j = ref 0 in
  for p = 0 to b.plans - 1 do
    if b.route.(p) = route then
      for t = b.run.(p) to b.run.(p + 1) - 1 do
        for k = b.off.(t) to b.off.(t + 1) - 1 do
          pt.at.(!j) <- k;
          pt.n.(!j) <- b.n_lo.(t) + k - b.off.(t);
          pt.r.(!j) <- b.r.(t);
          pt.plan.(!j) <- p;
          incr j
        done
      done
  done;
  pt

(* The points of [route] grouped by [key], a [(hash, same)] pair on
   their positions in [points_of], one [Exec.Parallel.map] element per
   group: [work pt j] runs the unit of work of the group whose first
   point, in batch order, is [j], and [read x pt i] writes the values of
   each of the group's points [i] from its result [x] at the point's
   offset.  Without a key, or when no key repeats, every point is its
   own group and is mapped over directly.  No two points share an
   offset, so the domains write disjoint slots.  Each unit of work is
   one eval of the group's first plan; sets the route's wall time. *)
let shared_work ?key (b : Batch.t) route ~work ~read =
  let pt = points_of b route in
  let m = Array.length pt.at in
  let groups =
    Option.bind key (fun (hash, same) ->
        group
          (fun f ->
            for j = 0 to m - 1 do
              f j
            done)
          ~hash:(hash pt) ~same:(same pt))
  in
  let count, first, run =
    match groups with
    | None -> (m, Fun.id, fun j -> read (work pt j) pt j)
    | Some (seg, order) ->
        ( Array.length seg - 1,
          (fun g -> order.(seg.(g))),
          fun g ->
            let x = work pt order.(seg.(g)) in
            for i = seg.(g) to seg.(g + 1) - 1 do
              read x pt order.(i)
            done )
  in
  let (_ : unit array), wall_ns =
    time_ns (fun () -> Exec.Parallel.map run (Array.init count Fun.id))
  in
  for g = 0 to count - 1 do
    let p = pt.plan.(first g) in
    b.evals.(p) <- b.evals.(p) + 1
  done;
  Batch.set_wall b route wall_ns

(* One route: its columnar evaluation, and the adapters over it. *)
module Route (C : sig
  val name : string
  val route : Plan.route
  val serves : Query.quantity -> sampled:bool -> bool
  val max_n : int
  val eval : Batch.t -> unit
end) : Backend.S = struct
  let name = C.name
  let serves = C.serves
  let max_n = C.max_n
  let refuse what =
    invalid_arg ("Backends." ^ String.capitalize_ascii name ^ what)

  let supports (q : Query.t) =
    serves q.quantity
      ~sampled:(match q.accuracy with Query.Sampled _ -> true | Exact -> false)
    &&
    match q.domain with
    | Query.Point { n; _ } | Query.R_sweep { n; _ } -> n <= max_n
    | Query.N_sweep { ns; _ } -> Array.for_all (fun n -> n <= max_n) ns

  let eval_columns (b : Batch.t) =
    for p = 0 to b.plans - 1 do
      if
        b.route.(p) = C.route
        && not
             (serves b.quantity.(p) ~sampled:(Batch.trials b p > 0)
             && (max_n = max_int || Batch.max_n b p <= max_n))
      then refuse ": unsupported query"
    done;
    C.eval b

  let eval_batch plans =
    Array.iter
      (fun (pl : Plan.t) ->
        if pl.route <> C.route then
          refuse (": plan routed to " ^ Plan.route_name pl.route))
      plans;
    let b = Batch.of_plans plans in
    Batch.prepare b;
    eval_columns b;
    Batch.answers b plans
end

(* Every point its own unit of work, in one fan-out, so it balances
   across plans of uneven size; each value goes back to its point's
   offset. *)
module Analytic = Route (struct
  let name = "analytic"
  let route = Plan.Analytic

  let max_n = max_int

  let serves quantity ~sampled =
    not sampled
    &&
    match quantity with
    | Query.Mean_cost | Query.Error_probability | Query.Log10_error
    | Query.Latency_mean ->
        true
    | Query.Cost_variance -> false

  let eval1 (b : Batch.t) p n r =
    let s = Batch.scenario b p in
    match b.quantity.(p) with
    | Query.Mean_cost -> Zeroconf.Cost.mean s ~n ~r
    | Query.Error_probability -> Zeroconf.Reliability.error_probability s ~n ~r
    | Query.Log10_error -> Zeroconf.Reliability.log10_error_probability s ~n ~r
    | Query.Latency_mean ->
        Zeroconf.Latency.mean (Zeroconf.Latency.periods s ~n ~r)
    | Query.Cost_variance ->
        invalid_arg "Backends.Analytic: cost variance is DRM-only"

  let eval (b : Batch.t) =
    shared_work b route
      ~work:(fun pt j -> eval1 b pt.plan.(j) pt.n.(j) pt.r.(j))
      ~read:(fun v pt j -> b.value.(pt.at.(j)) <- v)
end)

(* One streaming cursor per (scenario, r) column, amortized across
   every plan in the batch.  The cursor state at n does not depend on
   where reads happen, so merging plans' stops onto a shared scan is
   bitwise identical to running each plan alone.  Columns run one after
   another: a column costs microseconds, less than handing it to
   another domain.

   The kernel plans' runs (each one r and an ascending n-range) are
   grouped into columns by (scenario id, bits of r) with [group] over
   packed (plan, run) items.  When no column holds two runs, as on a
   batch of distinct points, each run scans straight into the value
   array in batch order, and nothing but the table is built.  Otherwise
   a column of one run scans straight, and any other gathers its stops
   in batch order, sorts them by n if they are out of order (ties keep
   batch order), and so scans in (n, plan, point) order.  An advance
   between consecutive stops is charged to the later stop's plan, so
   per-plan evals sum to the scan work actually done.

   A column's cursor is the one cursor of its (scenario, log twin),
   created on first use and then {!Zeroconf.Kernel.reset} to the
   column's r, which reads and steps exactly as a fresh one. *)
module Kernel = Route (struct
  let name = "kernel"
  let route = Plan.Kernel

  let max_n = max_int

  let serves quantity ~sampled =
    not sampled
    &&
    match quantity with
    | Query.Mean_cost | Query.Error_probability | Query.Log10_error -> true
    | Query.Cost_variance | Query.Latency_mean -> false

  let reader = function
    | Query.Mean_cost -> Zeroconf.Kernel.Cost
    | Query.Error_probability -> Zeroconf.Kernel.Error
    | Query.Log10_error -> Zeroconf.Kernel.Log10
    | _ -> invalid_arg "Backends.Kernel: unsupported quantity"

  (* a stop's n above its position in the column's gather: the packed
     ints sort by (n, batch order), and n <= Query.max_points fits *)
  let pos_bits = 40
  let pos_mask = (1 lsl pos_bits) - 1
  let () = assert (Query.max_points < 1 lsl (62 - pos_bits))

  (* run [t] of plan [p] as one int, the plan above the run: a batch
     holds fewer than 2^31 runs, whose arrays alone would take 48 GB *)
  let run_bits = 31
  let pack p t = (p lsl run_bits) lor t
  let plan_of x = x lsr run_bits
  let run_of x = x land ((1 lsl run_bits) - 1)

  let eval (b : Batch.t) =
    let cursors = ref [||] in
    (* the cursor of (scenario id, log twin), at r = b.r.(t) *)
    let cursor sid log_twin t =
      let i = (2 * sid) + Bool.to_int log_twin in
      if i >= Array.length !cursors then begin
        let grown = Array.make (2 * (sid + 1)) None in
        Array.blit !cursors 0 grown 0 (Array.length !cursors);
        cursors := grown
      end;
      match !cursors.(i) with
      | Some k ->
          Zeroconf.Kernel.reset k b.r t;
          k
      | None ->
          let k =
            Zeroconf.Kernel.create ~log_twin (Plan.scenario_of_id sid)
              ~r:b.r.(t)
          in
          !cursors.(i) <- Some k;
          k
    in
    (* the packed run alone on its column *)
    let scan_run x =
      let p = plan_of x and t = run_of x in
      let k =
        cursor b.scenario_id.(p) (b.quantity.(p) = Query.Log10_error) t
      and lo = b.n_lo.(t)
      and off = b.off.(t) in
      Zeroconf.Kernel.column k (reader b.quantity.(p)) ~lo
        ~hi:(lo + b.off.(t + 1) - 1 - off) b.value off;
      b.evals.(p) <- b.evals.(p) + Zeroconf.Kernel.n k
    in
    (* every run t of every kernel plan p, in batch order, packed *)
    let iter_runs f =
      for p = 0 to b.plans - 1 do
        if b.route.(p) = route then
          for t = b.run.(p) to b.run.(p + 1) - 1 do
            f (pack p t)
          done
      done
    in
    let columns =
      group iter_runs
        ~hash:(fun x ->
          mix b.scenario_id.(plan_of x) (hash_bits b.r.(run_of x)))
        ~same:(fun x y ->
          b.scenario_id.(plan_of x) = b.scenario_id.(plan_of y)
          && same_bits b.r.(run_of x) b.r.(run_of y))
    in
    (* the column of the runs order.(first) .. order.(stop - 1), more
       than one *)
    let scan_shared order first stop =
      let log_twin = ref false and points = ref 0 in
      for j = first to stop - 1 do
        let p = plan_of order.(j) and t = run_of order.(j) in
        log_twin := !log_twin || b.quantity.(p) = Query.Log10_error;
        points := !points + b.off.(t + 1) - b.off.(t)
      done;
      let x0 = order.(first) in
      let k = cursor b.scenario_id.(plan_of x0) !log_twin (run_of x0)
      and stop_point = Array.make !points 0
      and stop_plan = Array.make !points 0
      and key = Array.make !points 0
      and s = ref 0
      and sorted = ref true in
      for j = first to stop - 1 do
        let p = plan_of order.(j) and t = run_of order.(j) in
        for i = b.off.(t) to b.off.(t + 1) - 1 do
          stop_point.(!s) <- i;
          stop_plan.(!s) <- p;
          key.(!s) <- ((b.n_lo.(t) + i - b.off.(t)) lsl pos_bits) lor !s;
          if !s > 0 && key.(!s) < key.(!s - 1) then sorted := false;
          incr s
        done
      done;
      if not !sorted then Array.sort Int.compare key;
      Array.iter
        (fun key ->
          let s = key land pos_mask and n = key lsr pos_bits in
          let i = stop_point.(s) and p = stop_plan.(s) in
          b.evals.(p) <- b.evals.(p) + n - Zeroconf.Kernel.n k;
          Zeroconf.Kernel.column k (reader b.quantity.(p)) ~lo:n ~hi:n b.value
            i)
        key
    in
    let scan_all () =
      match columns with
      | None -> iter_runs scan_run
      | Some (seg, order) ->
          for c = 0 to Array.length seg - 2 do
            if seg.(c + 1) - seg.(c) = 1 then scan_run order.(seg.(c))
            else scan_shared order seg.(c) seg.(c + 1)
          done
    in
    let (), wall_ns = time_ns scan_all in
    Batch.set_wall b route wall_ns
end)

module Dtmc = Route (struct
  let name = "dtmc"
  let route = Plan.Dtmc

  (* An input-size guard, not a numerical limit: a point builds a
     labelled chain of n + 3 states and eliminates it in O(n log n), so
     an ns=1:N sweep costs O(N^2).  512 spans the n range the kernel is
     swept over and checked against; beyond it the kernel answers mean
     cost and error, and cost variance has no route. *)
  let max_n = 512

  let serves quantity ~sampled =
    not sampled
    &&
    match quantity with
    | Query.Mean_cost | Query.Error_probability | Query.Log10_error
    | Query.Cost_variance ->
        true
    | Query.Latency_mean -> false

  (* [Query.validate] bounds the cost itself, not its square: a
     variance past [max_float] is refused here rather than printed as
     inf *)
  let value_of (b : Batch.t) p drm ~n ~r =
    match b.quantity.(p) with
    | Query.Mean_cost -> Zeroconf.Drm.mean_cost drm
    | Query.Error_probability -> Zeroconf.Drm.error_probability drm
    | Query.Log10_error -> Float.log10 (Zeroconf.Drm.error_probability drm)
    | Query.Cost_variance ->
        let v = Zeroconf.Drm.cost_variance drm in
        if Float.is_finite v then v
        else
          Batch.refuse b p
            (Printf.sprintf "Backends.Dtmc: %s at n = %d, r = %g is not finite"
               (Query.quantity_name Query.Cost_variance) n r)
    | Query.Latency_mean -> invalid_arg "Backends.Dtmc: no latency route"

  (* One matrix build per distinct (scenario, n, bits of r) in the
     whole batch; every requesting point reads its own quantity from
     the shared solve.  The build is attributed to the point that
     requested it first; later readers of the same matrix cost
     nothing. *)
  let eval (b : Batch.t) =
    shared_work b route
      ~key:
        ( (fun pt j ->
            mix (mix b.scenario_id.(pt.plan.(j)) pt.n.(j)) (hash_bits pt.r.(j))),
          fun pt i j ->
            b.scenario_id.(pt.plan.(i)) = b.scenario_id.(pt.plan.(j))
            && pt.n.(i) = pt.n.(j) && same_bits pt.r.(i) pt.r.(j) )
      ~work:(fun pt j ->
        Zeroconf.Drm.build (Batch.scenario b pt.plan.(j)) ~n:pt.n.(j)
          ~r:pt.r.(j))
      ~read:(fun drm pt j ->
        b.value.(pt.at.(j)) <-
          value_of b pt.plan.(j) drm ~n:pt.n.(j) ~r:pt.r.(j))
end)

module Mc = Route (struct
  let name = "mc"
  let route = Plan.Mc

  let max_n = max_int

  let serves quantity ~sampled =
    sampled
    &&
    match quantity with
    | Query.Mean_cost | Query.Error_probability | Query.Latency_mean -> true
    | Query.Log10_error | Query.Cost_variance -> false

  let occupied_of (p : Zeroconf.Params.t) =
    let size = Zeroconf.Params.address_space_size in
    let m = int_of_float (Float.round (p.q *. float_of_int size)) in
    max 0 (min (size - 1) m)

  (* The trials of point [j], the [index]th of its plan: an independent
     deterministic stream per sweep point, so sweeps can fan out over
     domains without sharing an rng. *)
  let run_stream (b : Batch.t) (pt : points) j =
    let p = pt.plan.(j) in
    let s = Batch.scenario b p and index = pt.at.(j) - Batch.first_point b p in
    let rng = Numerics.Rng.create (Batch.seed b p + (7919 * index)) in
    let config =
      Netsim.Newcomer.drm_config ~n:pt.n.(j) ~r:pt.r.(j) ~probe_cost:s.probe_cost
        ~error_cost:s.error_cost
    in
    Netsim.Scenario.run_aggregate ~delay:s.delay ~occupied:(occupied_of s)
      ~config ~trials:(Batch.trials b p) ~rng ()

  (* [Query.validate] bounds one attempt's cost, but a trial restarts
     without bound: a mean past [max_float] is refused, not printed *)
  let interval (b : Batch.t) p sample ~n ~r =
    let iv =
      match b.quantity.(p) with
      | Query.Mean_cost -> Netsim.Metrics.cost_interval sample
      | Query.Error_probability -> Netsim.Metrics.collision_interval sample
      | Query.Latency_mean -> Netsim.Metrics.config_time_interval sample
      | _ -> invalid_arg "Backends.Mc: unsupported quantity"
    in
    if not (Float.is_finite iv.Netsim.Metrics.mean) then
      Batch.refuse b p
        (Printf.sprintf "Backends.Mc: %s at n = %d, r = %g is not finite"
           (Query.quantity_name b.quantity.(p)) n r);
    iv

  (* One run per sampling stream in the whole batch: points that agree
     on scenario (interned, so physically the same), n, the bits of r,
     trials, seed and stream index draw the same outcomes, so they
     share one run and each reads its own quantity from it.  A stream
     is never merged with another, so a batch is bitwise the same as
     evaluating each plan alone. *)
  let eval (b : Batch.t) =
    let index (pt : points) j = pt.at.(j) - Batch.first_point b pt.plan.(j) in
    shared_work b route
      ~key:
        ( (fun pt j ->
            let p = pt.plan.(j) in
            mix
              (mix (mix (mix b.scenario_id.(p) pt.n.(j)) (hash_bits pt.r.(j)))
                 (Batch.seed b p))
              (index pt j)),
          fun pt i j ->
            let p = pt.plan.(i) and p' = pt.plan.(j) in
            b.scenario_id.(p) = b.scenario_id.(p')
            && pt.n.(i) = pt.n.(j) && same_bits pt.r.(i) pt.r.(j)
            && Batch.trials b p = Batch.trials b p'
            && Batch.seed b p = Batch.seed b p'
            && index pt i = index pt j )
      ~work:(run_stream b)
      ~read:(fun sample pt j ->
        let k = pt.at.(j)
        and { Netsim.Metrics.mean; ci_lo; ci_hi } =
          interval b pt.plan.(j) sample ~n:pt.n.(j) ~r:pt.r.(j)
        in
        b.value.(k) <- mean;
        b.ci_lo.(k) <- ci_lo;
        b.ci_hi.(k) <- ci_hi);
    (* trials x points per plan, shared run or not *)
    for p = 0 to b.plans - 1 do
      if b.route.(p) = route then
        b.evals.(p) <-
          Batch.trials b p * (Batch.first_point b (p + 1) - Batch.first_point b p)
    done
end)
