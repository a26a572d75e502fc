(* The batch front end appends each line's plan and points here in
   place, the backends write their results at the points' offsets, and
   the CLI prints straight from the arrays: no record, pair or boxed
   float per point from parse to emit. *)

type t = {
  mutable plans : int;
  mutable quantity : Query.quantity array;
  mutable route : Plan.route array;
  mutable scenario_id : int array;
  mutable trials : int array;
  mutable seed : int array;
  mutable off : int array;
  mutable points : int;
  mutable n : int array;
  mutable r : float array;
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

let route_index : Plan.route -> int = function
  | Kernel -> 0
  | Analytic -> 1
  | Dtmc -> 2
  | Mc -> 3

let create ?(plans = 64) ?(points = 64) () =
  let plans = max 1 plans and points = max 1 points in
  { plans = 0;
    quantity = Array.make plans Query.Mean_cost;
    route = Array.make plans Plan.Kernel;
    scenario_id = Array.make plans 0;
    trials = [||];
    seed = [||];
    off = Array.make (plans + 1) 0;
    points = 0;
    n = Array.make points 0;
    r = Array.create_float points;
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

let add_plan b quantity sid route ~trials ~seed =
  let p = b.plans and len = b.plans + 1 in
  (* one test for all: [off] keeps room for one more than the rest *)
  if len > Array.length b.quantity then begin
    b.quantity <- grow b.quantity Query.Mean_cost len;
    b.route <- grow b.route Plan.Kernel len;
    b.scenario_id <- grow b.scenario_id 0 len;
    b.off <- grow b.off 0 (Array.length b.quantity + 1)
  end;
  b.quantity.(p) <- quantity;
  b.route.(p) <- route;
  b.scenario_id.(p) <- sid;
  if trials <> 0 || seed <> 0 then begin
    b.trials <- grow b.trials 0 len;
    b.seed <- grow b.seed 0 len;
    b.trials.(p) <- trials;
    b.seed.(p) <- seed
  end;
  b.plans <- len;
  b.off.(len) <- b.points

(* room for [k] more points *)
let reserve b k =
  if b.points + k > Array.length b.n then begin
    b.n <- grow b.n 0 (b.points + k);
    b.r <- grow b.r 0. (b.points + k)
  end

let add_n_sweep b ~lo ~hi rs i =
  reserve b (hi - lo + 1);
  let k = b.points in
  for n = lo to hi do
    b.n.(k + n - lo) <- n;
    b.r.(k + n - lo) <- rs.(i)
  done;
  b.points <- k + hi - lo + 1;
  b.off.(b.plans) <- b.points

let add_r_sweep b n rs =
  let len = Array.length rs in
  reserve b len;
  Array.fill b.n b.points len n;
  Array.blit rs 0 b.r b.points len;
  b.points <- b.points + len;
  b.off.(b.plans) <- b.points

let validate_last b scenario ~sampled =
  let p = b.plans - 1 in
  Query.validate_columns b.quantity.(p) scenario ~sampled
    ~trials:(trials b p) ~n:b.n ~r:b.r ~lo:b.off.(p) ~hi:b.off.(p + 1)

let max_n b p =
  let m = ref 0 in
  for k = b.off.(p) to b.off.(p + 1) - 1 do
    m := max !m b.n.(k)
  done;
  !m

let set_wall b route ns = b.wall_ns.(route_index route) <- ns

let prepare b =
  b.value <- Array.create_float b.points;
  if Array.exists (fun t -> t > 0) b.trials then begin
    b.ci_lo <- Array.create_float b.points;
    b.ci_hi <- Array.create_float b.points
  end;
  b.evals <- Array.make b.plans 0;
  Array.fill b.wall_ns 0 4 0L

let of_plans (plans : Plan.t array) =
  let b =
    create ~plans:(Array.length plans)
      ~points:(Array.fold_left (fun k pl -> k + Plan.size pl) 0 plans)
      ()
  in
  Array.iter
    (fun (pl : Plan.t) ->
      let trials, seed =
        match pl.accuracy with
        | Query.Exact -> (0, 0)
        | Query.Sampled { trials; seed } -> (trials, seed)
      in
      add_plan b pl.quantity pl.scenario_id pl.route ~trials ~seed;
      let k = b.points in
      Array.iteri
        (fun i (n, r) ->
          b.n.(k + i) <- n;
          b.r.(k + i) <- r)
        pl.points;
      b.points <- k + Array.length pl.points;
      b.off.(b.plans) <- b.points)
    plans;
  b

let answers b (plans : Plan.t array) =
  Array.mapi
    (fun p (pl : Plan.t) ->
      let lo = b.off.(p) and len = b.off.(p + 1) - b.off.(p) in
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
        wall_ns = b.wall_ns.(route_index b.route.(p));
        points = pl.points;
        values })
    plans
