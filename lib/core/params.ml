type t = {
  name : string;
  delay : Dist.Distribution.t;
  q : float;
  probe_cost : float;
  error_cost : float;
}

let address_space_size = 65024

let q_of_hosts m =
  if m < 0 || m >= address_space_size then
    invalid_arg "Params.q_of_hosts: m outside [0, 65024)";
  float_of_int m /. float_of_int address_space_size

let v ~name ~delay ~q ~probe_cost ~error_cost =
  (* each check is written so that a NaN fails it *)
  if not (q >= 0. && q < 1.) then invalid_arg "Params.v: q outside [0, 1)";
  if not (probe_cost >= 0. && probe_cost < infinity) then
    invalid_arg "Params.v: probe_cost outside [0, inf)";
  if not (error_cost >= 0. && error_cost < infinity) then
    invalid_arg "Params.v: error_cost outside [0, inf)";
  { name; delay; q; probe_cost; error_cost }

let with_costs ?probe_cost ?error_cost t =
  v ~name:t.name ~delay:t.delay ~q:t.q
    ~probe_cost:(Option.value ~default:t.probe_cost probe_cost)
    ~error_cost:(Option.value ~default:t.error_cost error_cost)

let with_q t q =
  v ~name:t.name ~delay:t.delay ~q ~probe_cost:t.probe_cost
    ~error_cost:t.error_cost

let with_delay t delay =
  v ~name:t.name ~delay ~q:t.q ~probe_cost:t.probe_cost
    ~error_cost:t.error_cost

let loss_probability t = Dist.Distribution.loss_probability t.delay

let shifted ~loss ~rate ~delay =
  Dist.Families.shifted_exponential ~mass:(1. -. loss) ~rate ~delay ()

let figure2 =
  v ~name:"figure2"
    ~delay:(shifted ~loss:1e-15 ~rate:10. ~delay:1.)
    ~q:(q_of_hosts 1000) ~probe_cost:2. ~error_cost:1e35

let wireless_worst_case =
  v ~name:"wireless-worst-case"
    ~delay:(shifted ~loss:1e-5 ~rate:10. ~delay:1.)
    ~q:(q_of_hosts 1000) ~probe_cost:3.5 ~error_cost:5e20

let wired_worst_case =
  v ~name:"wired-worst-case"
    ~delay:(shifted ~loss:1e-10 ~rate:100. ~delay:0.1)
    ~q:(q_of_hosts 1000) ~probe_cost:0.5 ~error_cost:1e35

let realistic_ethernet =
  v ~name:"realistic-ethernet"
    ~delay:(shifted ~loss:1e-12 ~rate:10. ~delay:0.001)
    ~q:(q_of_hosts 1000) ~probe_cost:3.5 ~error_cost:5e20

let presets =
  [ ("figure2", figure2);
    ("wireless-worst-case", wireless_worst_case);
    ("wired-worst-case", wired_worst_case);
    ("realistic-ethernet", realistic_ethernet) ]

let pp ppf t =
  Format.fprintf ppf
    "@[<v>scenario %s:@,  F_X = %a@,  q = %g@,  c = %g@,  E = %g@]" t.name
    Dist.Distribution.pp t.delay t.q t.probe_cost t.error_cost
