type interval = { mean : float; ci_lo : float; ci_hi : float }
type values = Scalars of float array | Intervals of interval array
type value = Scalar of float | Interval of interval

type t = {
  backend : string;
  evals : int;
  wall_ns : int64;
  points : (int * float) array;
  values : values;
}

let scalar t k =
  match t.values with Scalars v -> v.(k) | Intervals v -> v.(k).mean

let ci t k =
  match t.values with
  | Scalars _ -> None
  | Intervals v -> Some (v.(k).ci_lo, v.(k).ci_hi)

let value t k =
  match t.values with
  | Scalars v -> Scalar v.(k)
  | Intervals v -> Interval v.(k)
