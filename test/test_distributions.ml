module D = Dist.Distribution
module F = Dist.Families

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let check_self d =
  match Oracle.check d with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* ------------- shifted exponential: the paper's F_X ------------- *)

let paper_fx = F.shifted_exponential ~mass:(1. -. 1e-5) ~rate:10. ~delay:1. ()

let test_paper_fx_cdf () =
  check_close "zero before the round trip" 0. (paper_fx.D.cdf 0.9);
  check_close "zero at d" 0. (paper_fx.D.cdf 1.);
  (* F(d + t) = l (1 - e^{-lambda t}) *)
  check_close "one tenth after d"
    ((1. -. 1e-5) *. (1. -. exp (-1.)))
    (paper_fx.D.cdf 1.1);
  Alcotest.(check bool) "saturates at mass" true
    (Float.abs (paper_fx.D.cdf 1e6 -. (1. -. 1e-5)) < 1e-12)

let test_paper_fx_survival_tail () =
  (* the survival tail must resolve the 1e-5 defect without cancellation *)
  let s = paper_fx.D.survival 10. in
  check_close ~tol:1e-12 "tail = defect + exp decay"
    (1e-5 +. ((1. -. 1e-5) *. exp (-90.)))
    s;
  check_close ~tol:1e-18 "deep tail is exactly the defect"
    (1. -. paper_fx.D.mass)
    (paper_fx.D.survival 1e4)

let test_paper_fx_mean () = check_close "mean d + 1/lambda" 1.1 paper_fx.D.mean

let test_paper_fx_self () = check_self paper_fx

(* ------------- other families ------------- *)

let test_exponential () =
  let d = F.exponential ~rate:2. () in
  check_close "cdf at ln2/2" 0.5 (d.D.cdf (Float.log 2. /. 2.));
  check_close "survival complement" 0.5 (d.D.survival (Float.log 2. /. 2.));
  check_self d;
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Families.exponential: rate outside (0, inf]") (fun () ->
      ignore (F.exponential ~rate:0. ()))

(* a reply after exactly 1 s, half of the time: the deterministic-delay
   limit of the lossy shifted exponential *)
let coin = F.shifted_exponential ~mass:0.5 ~rate:infinity ~delay:1. ()

let test_deterministic () =
  let d = F.deterministic ~delay:3. () in
  check_close "before" 0. (d.D.cdf 2.999);
  check_close "after" 1. (d.D.cdf 3.);
  check_close "survival before" 1. (d.D.survival 2.9);
  check_close "survival after" 0. (d.D.survival 3.5);
  Alcotest.(check bool) "not defective" true (d.D.mass = 1.);
  check_close "lossy limit after" 0.5 (coin.D.cdf 1.5);
  check_close "lossy limit survival after" 0.5 (coin.D.survival 1.5)

let test_uniform () =
  let d = F.uniform ~lo:1. ~hi:3. () in
  check_close "midpoint" 0.5 (d.D.cdf 2.);
  check_close "mean" 2. d.D.mean;
  check_self d;
  Alcotest.check_raises "bad bounds"
    (Invalid_argument "Families.uniform: need 0 <= lo < hi < inf") (fun () ->
      ignore (F.uniform ~lo:3. ~hi:1. ()))

let test_weibull_reduces_to_exponential () =
  (* shape 1 Weibull = exponential with rate 1/scale *)
  let w = Oracle.weibull ~shape:1. ~scale:0.5 () in
  let e = F.exponential ~rate:2. () in
  List.iter
    (fun t ->
      check_close ~tol:1e-12 (Printf.sprintf "cdf at %g" t) (e.D.cdf t) (w.D.cdf t))
    [ 0.1; 0.5; 1.; 3. ];
  check_close ~tol:1e-12 "mean" e.D.mean w.D.mean

let test_weibull_self () =
  check_self (Oracle.weibull ~mass:0.95 ~delay:0.2 ~shape:1.7 ~scale:0.8 ())


let test_mixture () =
  let d =
    Oracle.mixture [ (1., F.deterministic ~delay:1. ()); (1., F.deterministic ~delay:3. ()) ]
  in
  check_close "mass" 1. d.D.mass;
  check_close "between the atoms" 0.5 (d.D.cdf 2.);
  check_close "after both" 1. (d.D.cdf 4.);
  check_close "mean between the atoms" 2. d.D.mean;
  Alcotest.check_raises "empty" (Invalid_argument "Oracle.mixture: empty mixture")
    (fun () -> ignore (Oracle.mixture []))

let test_mixture_defective_mass () =
  let d =
    Oracle.mixture
      [ (3., coin); (1., F.deterministic ~delay:2. ()) ]
  in
  check_close "weighted mass" ((0.75 *. 0.5) +. (0.25 *. 1.)) d.D.mass;
  (* a reply comes from coin (mean 1) with weight 0.375, from the atom
     at 2 with weight 0.25 *)
  check_close "mean given a reply" (((0.375 *. 1.) +. (0.25 *. 2.)) /. 0.625)
    d.D.mean

(* ------------- generic Distribution operations ------------- *)

let test_conditional_cdf () =
  check_close "conditional saturates at 1" 1. (D.conditional_cdf coin 2.)

let test_sampling_matches_cdf () =
  (* Kolmogorov-style check: ECDF of samples close to the cdf *)
  let d = F.shifted_exponential ~mass:1. ~rate:4. ~delay:0.3 () in
  let rng = Numerics.Rng.create 99 in
  let n = 20_000 in
  let samples =
    Array.init n (fun _ ->
        match d.D.sample rng with Some x -> x | None -> Alcotest.fail "lost?")
  in
  let ecdf = Oracle.ecdf samples in
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "ecdf ~ cdf at %g" t)
        true
        (Float.abs (ecdf t -. d.D.cdf t) < 0.02))
    [ 0.35; 0.5; 0.8; 1.5 ]

let test_sampling_loss_rate () =
  let d = F.shifted_exponential ~mass:0.7 ~rate:infinity ~delay:1. () in
  let rng = Numerics.Rng.create 5 in
  let n = 20_000 in
  let lost = ref 0 in
  for _ = 1 to n do
    if d.D.sample rng = None then incr lost
  done;
  let rate = float_of_int !lost /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "loss rate %.3f near 0.3" rate) true
    (Float.abs (rate -. 0.3) < 0.02)

let test_constructor_guards () =
  Alcotest.check_raises "mass 0" (Invalid_argument "Distribution.v: mass must lie in (0, 1]")
    (fun () ->
      ignore
        (D.v ~name:"bad" ~mass:0. ~mean:1. ~cdf:(fun _ -> 0.) ~survival:(fun _ -> 1.)
           ~sample:(fun _ -> None) ()))

(* a NaN parameter, or an infinite delay, fails with a message instead
   of yielding a law whose every value is NaN *)
let test_nan_and_inf_rejected () =
  let rejects msg f =
    match f () with
    | (_ : D.t) -> Alcotest.failf "%s accepted" msg
    | exception Invalid_argument _ -> ()
  in
  rejects "nan rate" (fun () -> F.shifted_exponential ~mass:1. ~rate:nan ~delay:1. ());
  rejects "nan delay" (fun () -> F.shifted_exponential ~mass:1. ~rate:10. ~delay:nan ());
  rejects "infinite delay" (fun () ->
      F.shifted_exponential ~mass:1. ~rate:10. ~delay:infinity ());
  rejects "nan mass" (fun () ->
      F.shifted_exponential ~mass:nan ~rate:10. ~delay:1. ());
  rejects "exponential nan rate" (fun () -> F.exponential ~rate:nan ());
  rejects "deterministic nan delay" (fun () -> F.deterministic ~delay:nan ());
  rejects "uniform nan lo" (fun () -> F.uniform ~lo:nan ~hi:1. ());
  rejects "uniform infinite hi" (fun () -> F.uniform ~lo:0. ~hi:infinity ());
  rejects "mixture nan weight" (fun () -> Oracle.mixture [ (nan, paper_fx) ]);
  (* an infinite rate is the deterministic-delay limit: legal *)
  let d = F.shifted_exponential ~mass:1. ~rate:infinity ~delay:1. () in
  check_close "all mass at d" 1. (d.D.cdf 1.000001);
  check_close "mean d" 1. d.D.mean

(* property: every family keeps cdf + survival = 1 and cdf monotone *)
let family_gen =
  QCheck.Gen.(
    let* mass = float_range 0.3 1.0 in
    let* rate = float_range 0.5 20. in
    let* delay = float_range 0. 2. in
    oneofl
      [ F.shifted_exponential ~mass ~rate ~delay ();
        F.exponential ~rate ();
        F.uniform ~lo:delay ~hi:(delay +. 1.) ();
        Oracle.weibull ~mass ~delay ~shape:1.5 ~scale:(1. /. rate) () ])

let prop_families_well_formed =
  QCheck.Test.make ~name:"every family passes the self-check" ~count:100
    (QCheck.make family_gen)
    (fun d -> match Oracle.check d with Ok () -> true | Error _ -> false)

(* the stored closed-form mean (read by Optimize and Adaptive) against
   the family's own sampler: the mean of the delays that arrive, within
   five standard errors; the test oracles' Weibull and mixture too *)
let prop_mean_matches_sampler =
  let gen =
    QCheck.Gen.(
      let* mass = float_range 0.4 1.0 in
      let* rate = float_range 0.5 10. in
      let* delay = float_range 0. 2. in
      let* shape = float_range 0.7 3. in
      let* weight = float_range 0.1 0.9 in
      oneofl
        [ F.shifted_exponential ~mass ~rate ~delay ();
          F.exponential ~rate ();
          F.uniform ~lo:delay ~hi:(delay +. 2.) ();
          Oracle.weibull ~mass ~delay ~shape ~scale:(1. /. rate) ();
          Oracle.mixture
            [ (weight, F.shifted_exponential ~mass ~rate ~delay ());
              (1. -. weight, F.uniform ~lo:delay ~hi:(delay +. 2.) ()) ] ])
  in
  QCheck.Test.make ~name:"sampled mean = closed-form mean" ~count:60
    (QCheck.make ~print:(fun d -> d.D.name) gen)
    (fun d ->
      let rng = Numerics.Rng.create 2003 in
      let arrivals =
        Array.of_seq
          (Seq.filter_map
             (fun _ -> d.D.sample rng)
             (Seq.init 20_000 Fun.id))
      in
      let s = Numerics.Stats.summarize arrivals in
      let se = s.Numerics.Stats.std /. sqrt (float_of_int s.Numerics.Stats.n) in
      Float.abs (s.Numerics.Stats.mean -. d.D.mean) <= 5. *. se)

let prop_survival_monotone_decreasing =
  QCheck.Test.make ~name:"survival is non-increasing" ~count:100
    QCheck.(pair (make family_gen) (pair (float_range 0. 10.) (float_range 0. 10.)))
    (fun (d, (t1, t2)) ->
      let lo = Float.min t1 t2 and hi = Float.max t1 t2 in
      d.D.survival hi <= d.D.survival lo +. 1e-9)

let () =
  Alcotest.run "distributions"
    [ ( "paper F_X",
        [ Alcotest.test_case "cdf" `Quick test_paper_fx_cdf;
          Alcotest.test_case "survival tail" `Quick test_paper_fx_survival_tail;
          Alcotest.test_case "mean" `Quick test_paper_fx_mean;
          Alcotest.test_case "self-check" `Quick test_paper_fx_self ] );
      ( "families",
        [ Alcotest.test_case "exponential" `Quick test_exponential;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "uniform" `Quick test_uniform;
          Alcotest.test_case "weibull = exp at shape 1" `Quick
            test_weibull_reduces_to_exponential;
          Alcotest.test_case "weibull self-check" `Quick test_weibull_self;
          Alcotest.test_case "mixture" `Quick test_mixture;
          Alcotest.test_case "mixture mass" `Quick test_mixture_defective_mass ] );
      ( "operations",
        [ Alcotest.test_case "conditional cdf" `Quick test_conditional_cdf;
          Alcotest.test_case "guards" `Quick test_constructor_guards;
          Alcotest.test_case "nan and inf" `Quick test_nan_and_inf_rejected ] );
      ( "sampling",
        [ Alcotest.test_case "matches cdf" `Quick test_sampling_matches_cdf;
          Alcotest.test_case "loss rate" `Quick test_sampling_loss_rate ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_families_well_formed; prop_survival_monotone_decreasing;
            prop_mean_matches_sampler ] ) ]
