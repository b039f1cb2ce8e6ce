open Umf_numerics
open Umf_meanfield

(* a birth-death population: birth at rate theta*(1-x), death at rate x *)
let bd_model () =
  let tr name change rate = { Population.name; change; rate } in
  Population.make ~name:"bd" ~var_names:[| "X" |] ~theta_names:[| "theta" |]
    ~theta:(Optim.Box.make [| 0.5 |] [| 2. |])
    [
      tr "birth" [| 1. |] (fun x th -> th.(0) *. Float.max 0. (1. -. x.(0)));
      tr "death" [| -1. |] (fun x _ -> Float.max 0. x.(0));
    ]

let test_make_validation () =
  Alcotest.check_raises "no vars" (Invalid_argument "Population.make: no variables")
    (fun () ->
      ignore
        (Population.make ~name:"x" ~var_names:[||] ~theta_names:[||]
           ~theta:(Optim.Box.make [||] [||])
           []));
  Alcotest.check_raises "theta mismatch"
    (Invalid_argument "Population.make: theta box/name dimension mismatch")
    (fun () ->
      ignore
        (Population.make ~name:"x" ~var_names:[| "a" |] ~theta_names:[||]
           ~theta:(Optim.Box.make [| 0. |] [| 1. |])
           []));
  Alcotest.check_raises "bad change"
    (Invalid_argument "Population.make: transition t has change of wrong dimension")
    (fun () ->
      ignore
        (Population.make ~name:"x" ~var_names:[| "a" |] ~theta_names:[||]
           ~theta:(Optim.Box.make [||] [||])
           [ { Population.name = "t"; change = [| 1.; 1. |]; rate = (fun _ _ -> 1.) } ]))

let test_drift () =
  let m = bd_model () in
  (* f(x, th) = th (1-x) - x *)
  let f = Population.drift m [| 0.25 |] [| 1. |] in
  Alcotest.(check (float 1e-12)) "drift" 0.5 f.(0);
  let f2 = Population.drift m [| 0.25 |] [| 2. |] in
  Alcotest.(check (float 1e-12)) "drift theta=2" 1.25 f2.(0)

let test_drift_rhs_equilibrium () =
  let m = bd_model () in
  (* equilibrium of th(1-x) = x at x = th/(1+th) *)
  let eq = Ode.fixed_point (Population.drift_rhs m ~theta:[| 2. |]) [| 0.1 |] in
  Alcotest.(check (float 1e-6)) "equilibrium" (2. /. 3.) eq.(0)

let test_controlled_rhs () =
  let m = bd_model () in
  let control t _x = if t < 1. then [| 0.5 |] else [| 2. |] in
  let rhs = Population.controlled_rhs m ~control in
  Alcotest.(check (float 1e-12)) "early" (0.5 *. 0.75 -. 0.25) (rhs 0.5 [| 0.25 |]).(0);
  Alcotest.(check (float 1e-12)) "late" (2. *. 0.75 -. 0.25) (rhs 2. [| 0.25 |]).(0)

let test_propensities () =
  let m = bd_model () in
  let props = Population.propensities m ~n:100 [| 0.25 |] [| 1. |] in
  Alcotest.(check (float 1e-9)) "birth" 75. props.(0);
  Alcotest.(check (float 1e-9)) "death" 25. props.(1)

let test_propensities_invalid () =
  let bad =
    Population.make ~name:"bad" ~var_names:[| "X" |] ~theta_names:[||]
      ~theta:(Optim.Box.make [||] [||])
      [ { Population.name = "neg"; change = [| 1. |]; rate = (fun _ _ -> -1.) } ]
  in
  Alcotest.check_raises "negative rate"
    (Invalid_argument "Population: transition neg has invalid rate") (fun () ->
      ignore (Population.propensities bad ~n:10 [| 0.5 |] [||]))

let prop_drift_linear_in_rates =
  (* drift at x is a linear combination of changes with non-negative
     weights: for the bd model |f| <= birth_rate + death_rate *)
  let gen = QCheck.Gen.(pair (float_range 0. 1.) (float_range 0.5 2.)) in
  QCheck.Test.make ~name:"drift bounded by total rate" ~count:200
    (QCheck.make gen) (fun (x, th) ->
      let m = bd_model () in
      let f = Population.drift m [| x |] [| th |] in
      let total = (th *. (1. -. x)) +. x in
      Float.abs f.(0) <= total +. 1e-9)

let suites =
  [
    ( "population",
      [
        Alcotest.test_case "make validation" `Quick test_make_validation;
        Alcotest.test_case "drift" `Quick test_drift;
        Alcotest.test_case "drift_rhs equilibrium" `Quick test_drift_rhs_equilibrium;
        Alcotest.test_case "controlled rhs" `Quick test_controlled_rhs;
        Alcotest.test_case "propensities" `Quick test_propensities;
        Alcotest.test_case "invalid rate detection" `Quick test_propensities_invalid;
        QCheck_alcotest.to_alcotest prop_drift_linear_in_rates;
      ] );
  ]
