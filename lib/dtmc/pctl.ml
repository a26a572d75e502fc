type comparison = Ge | Gt | Le | Lt

type formula =
  | True
  | Ap of string
  | Not of formula
  | And of formula * formula
  | Or of formula * formula
  | Implies of formula * formula
  | Prob of comparison * float * path

and path =
  | Next of formula
  | Until of formula * formula
  | Bounded_until of formula * formula * int
  | Eventually of formula
  | Bounded_eventually of formula * int
  | Globally of formula

type labelling = string -> int -> bool

let prob_next chain ~phi =
  Array.init (Chain.size chain) (fun s ->
      let cols, probs = Chain.successors chain s in
      Numerics.Safe_float.sum
        (Array.mapi (fun e j -> if phi.(j) then probs.(e) else 0.) cols))

(* the probabilities come out of a linear solve, so thresholds are
   compared with a relative epsilon: [Ge]/[Le] are forgiving, [Gt]/[Lt]
   conservative, and a value equal to the bound up to rounding counts
   as equal *)
let compare_with comparison bound v =
  let eps = 1e-9 *. Float.max (Float.abs bound) (Float.abs v) in
  match comparison with
  | Ge -> v >= bound -. eps
  | Gt -> v > bound +. eps
  | Le -> v <= bound +. eps
  | Lt -> v < bound -. eps

let all_true n = Array.make n true

let rec path_probabilities chain labelling path =
  let n = Chain.size chain in
  match path with
  | Next phi -> prob_next chain ~phi:(satisfaction chain labelling phi)
  | Until (phi, psi) ->
      Reachability.until chain
        ~phi:(satisfaction chain labelling phi)
        ~psi:(satisfaction chain labelling psi)
  | Bounded_until (phi, psi, k) ->
      Reachability.bounded_until chain
        ~phi:(satisfaction chain labelling phi)
        ~psi:(satisfaction chain labelling psi)
        ~k
  | Eventually phi ->
      Reachability.until chain ~phi:(all_true n) ~psi:(satisfaction chain labelling phi)
  | Bounded_eventually (phi, k) ->
      Reachability.bounded_until chain ~phi:(all_true n)
        ~psi:(satisfaction chain labelling phi)
        ~k
  | Globally phi ->
      (* P(G phi) = 1 - P(F not phi) *)
      let complement =
        Reachability.until chain ~phi:(all_true n)
          ~psi:(satisfaction chain labelling (Not phi))
      in
      Array.map (fun p -> 1. -. p) complement

and satisfaction chain labelling formula =
  let n = Chain.size chain in
  match formula with
  | True -> all_true n
  | Ap name -> Array.init n (fun s -> labelling name s)
  | Not f -> Array.map not (satisfaction chain labelling f)
  | And (a, b) ->
      let sa = satisfaction chain labelling a and sb = satisfaction chain labelling b in
      Array.init n (fun s -> sa.(s) && sb.(s))
  | Or (a, b) ->
      let sa = satisfaction chain labelling a and sb = satisfaction chain labelling b in
      Array.init n (fun s -> sa.(s) || sb.(s))
  | Implies (a, b) ->
      let sa = satisfaction chain labelling a and sb = satisfaction chain labelling b in
      Array.init n (fun s -> (not sa.(s)) || sb.(s))
  | Prob (comparison, bound, path) ->
      let p = path_probabilities chain labelling path in
      Array.map (compare_with comparison bound) p

let holds chain labelling ~from formula =
  (satisfaction chain labelling formula).(from)

let path_probability chain labelling ~from path =
  (path_probabilities chain labelling path).(from)

let label_of_state chain name state =
  Chain.label chain state = name
