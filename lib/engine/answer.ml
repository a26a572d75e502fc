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

let size t = Array.length t.points

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

let pp_value ppf = function
  | Scalar x -> Format.fprintf ppf "%.17g" x
  | Interval { mean; ci_lo; ci_hi } ->
      Format.fprintf ppf "%.6g [%.6g, %.6g]" mean ci_lo ci_hi

let pp ppf t =
  Format.fprintf ppf "%s: %d point%s, %d evals" t.backend (size t)
    (if size t = 1 then "" else "s")
    t.evals;
  if size t = 1 then Format.fprintf ppf " -> %a" pp_value (value t 0)
