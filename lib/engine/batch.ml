(* The batch front end appends each line's plan and runs here in
   place, the backends write their results at the points' offsets, and
   the CLI prints straight from the arrays: no record, pair or boxed
   float per point from parse to emit, and an n-sweep is one run, not
   one entry per point. *)

type t = {
  mutable plans : int;
  mutable quantity : Query.quantity array;
  mutable route : Plan.route array;
  mutable scenario_id : int array;
  mutable trials : int array;
  mutable seed : int array;
  mutable line : int array;
  mutable run : int array;
  mutable runs : int;
  mutable n_lo : int array;
  mutable r : float array;
  mutable off : int array;
  mutable points : int;
  mutable value : float array;
  mutable ci_lo : float array;
  mutable ci_hi : float array;
  mutable evals : int array;
  wall_ns : int64 array;
}

let scenario b p = Plan.scenario_of_id b.scenario_id.(p)

(* the sampling arrays stay short until a plan samples *)
let trials b p = if p < Array.length b.trials then b.trials.(p) else 0
let seed b p = if p < Array.length b.seed then b.seed.(p) else 0

let first_point b p = b.off.(b.run.(p))

let create ~plans ~runs =
  let plans = max 1 plans and runs = max 1 runs in
  { plans = 0;
    quantity = Array.make plans Query.Mean_cost;
    route = Array.make plans Plan.Kernel;
    scenario_id = Array.make plans 0;
    trials = [||];
    seed = [||];
    line = Array.make plans 0;
    run = Array.make (plans + 1) 0;
    runs = 0;
    n_lo = Array.make runs 0;
    r = Array.create_float runs;
    off = Array.make (runs + 1) 0;
    points = 0;
    value = [||];
    ci_lo = [||];
    ci_hi = [||];
    evals = [||];
    wall_ns = Array.make 4 0L }

(* [a] with room for [len] entries *)
let grow a fill len =
  if len <= Array.length a then a
  else begin
    let b = Array.make (max len (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let[@inline] add_plan b quantity sid route ~trials ~seed ~line =
  let p = b.plans and len = b.plans + 1 in
  (* one test for all: [run] keeps room for one more than the rest *)
  if len > Array.length b.quantity then begin
    b.quantity <- grow b.quantity Query.Mean_cost len;
    b.route <- grow b.route Plan.Kernel len;
    b.scenario_id <- grow b.scenario_id 0 len;
    b.line <- grow b.line 0 len;
    b.run <- grow b.run 0 (Array.length b.quantity + 1)
  end;
  b.quantity.(p) <- quantity;
  b.line.(p) <- line;
  b.route.(p) <- route;
  b.scenario_id.(p) <- sid;
  if trials <> 0 || seed <> 0 then begin
    b.trials <- grow b.trials 0 len;
    b.seed <- grow b.seed 0 len;
    b.trials.(p) <- trials;
    b.seed.(p) <- seed
  end;
  b.plans <- len;
  b.run.(len) <- b.runs

let[@inline] add_run b ~lo ~hi rs i =
  let t = b.runs and runs = b.runs + 1 in
  if runs > Array.length b.n_lo then begin
    b.n_lo <- grow b.n_lo 0 runs;
    b.r <- grow b.r 0. runs;
    b.off <- grow b.off 0 (Array.length b.n_lo + 1)
  end;
  b.n_lo.(t) <- lo;
  b.r.(t) <- rs.(i);
  b.points <- b.points + hi - lo + 1;
  b.off.(runs) <- b.points;
  b.runs <- runs;
  b.run.(b.plans) <- runs

let[@inline] validate_last b scenario ~sampled =
  let p = b.plans - 1 in
  Query.validate_runs b.quantity.(p) scenario ~sampled ~trials:(trials b p)
    ~n_lo:b.n_lo ~off:b.off ~r:b.r ~lo:b.run.(p) ~hi:b.run.(p + 1)

let add_plan_with_run b quantity sid route ~trials ~seed ~line ~lo ~hi rs i
    scenario ~sampled =
  add_plan b quantity sid route ~trials ~seed ~line;
  add_run b ~lo ~hi rs i;
  validate_last b scenario ~sampled

let max_n b p =
  let m = ref 0 in
  for t = b.run.(p) to b.run.(p + 1) - 1 do
    m := max !m (b.n_lo.(t) + b.off.(t + 1) - b.off.(t) - 1)
  done;
  !m

let refuse b p msg =
  invalid_arg
    (if b.line.(p) > 0 then Printf.sprintf "line %d: %s" b.line.(p) msg else msg)

let set_wall b route ns = b.wall_ns.(Plan.route_index route) <- ns

let prepare b =
  b.value <- Array.create_float b.points;
  if Array.exists (fun t -> t > 0) b.trials then begin
    b.ci_lo <- Array.create_float b.points;
    b.ci_hi <- Array.create_float b.points
  end;
  b.evals <- Array.make b.plans 0;
  Array.fill b.wall_ns 0 4 0L

(* the run arrays start at one run per plan, an n-sweep's count, and
   grow by doubling: an r-sweep adds a run per point *)
let of_plans (plans : Plan.t array) =
  let b = create ~plans:(Array.length plans) ~runs:(Array.length plans)
  and r = Array.create_float 1 in
  Array.iter
    (fun (pl : Plan.t) ->
      let trials, seed =
        match pl.accuracy with
        | Query.Exact -> (0, 0)
        | Query.Sampled { trials; seed } -> (trials, seed)
      in
      add_plan b pl.quantity pl.scenario_id pl.route ~trials ~seed ~line:0;
      let pts = pl.points and i = ref 0 in
      while !i < Array.length pts do
        let n, x = pts.(!i) in
        (* the longest run from point i: the bits of r kept (a nonzero r
           equal to x has its bits), n up by one *)
        let j = ref (!i + 1) in
        while
          !j < Array.length pts
          && fst pts.(!j) = n + !j - !i
          && ((snd pts.(!j) = x && x <> 0.)
             || Int64.bits_of_float (snd pts.(!j)) = Int64.bits_of_float x)
        do
          incr j
        done;
        r.(0) <- x;
        add_run b ~lo:n ~hi:(n + !j - !i - 1) r 0;
        i := !j
      done)
    plans;
  b

let answers b (plans : Plan.t array) =
  Array.mapi
    (fun p (pl : Plan.t) ->
      let lo = first_point b p in
      let len = first_point b (p + 1) - lo in
      let values =
        if trials b p > 0 then
          Answer.Intervals
            (Array.init len (fun i ->
                 { Answer.mean = b.value.(lo + i);
                   ci_lo = b.ci_lo.(lo + i);
                   ci_hi = b.ci_hi.(lo + i) }))
        else Answer.Scalars (Array.sub b.value lo len)
      in
      { Answer.backend = Plan.route_name b.route.(p);
        evals = b.evals.(p);
        wall_ns = b.wall_ns.(Plan.route_index b.route.(p));
        points = pl.points;
        values })
    plans
