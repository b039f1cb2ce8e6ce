open Umf_numerics
open Umf_diffinc

(* ẋ = θ, θ ∈ [-1, 1]: reach set of x(T) is exactly [x0 - T, x0 + T] *)
let integrator_di () = Fixture.di ~lo:[| -1. |] ~hi:[| 1. |] [| Expr.theta 0 |]

(* ẋ = θ x, θ ∈ [a, b], x0 > 0: max x(T) = x0 e^{bT} *)
let exponential_di a b =
  Fixture.di ~lo:[| a |] ~hi:[| b |] Expr.[| theta 0 *: var 0 |]

(* clock + steered coordinate: ẋ1 = 1, ẋ2 = θ (x1 - T/2), θ ∈ [-1, 1].
   max x2(T): θ = -1 before T/2, +1 after; value = T²/4; switch at T/2 *)
let clock_di () =
  Fixture.di ~lo:[| -1. |] ~hi:[| 1. |]
    Expr.[| const 1.; theta 0 *: (var 0 -: const 1.) |]

let test_integrator_bounds () =
  let di = integrator_di () in
  let rmax = Pontryagin.solve di ~x0:[| 0.5 |] ~horizon:2. ~sense:`Max (`Coord 0) in
  let rmin = Pontryagin.solve di ~x0:[| 0.5 |] ~horizon:2. ~sense:`Min (`Coord 0) in
  Alcotest.(check (float 1e-6)) "max" 2.5 rmax.value;
  Alcotest.(check (float 1e-6)) "min" (-1.5) rmin.value;
  Alcotest.(check bool) "max converged" true rmax.converged;
  Alcotest.(check bool) "no switches" true (Pontryagin.switch_times rmax ~coord:0 = [])

let test_exponential_growth () =
  let di = exponential_di 0.2 1.1 in
  let r = Pontryagin.solve di ~x0:[| 1. |] ~horizon:1.5 ~sense:`Max (`Coord 0) in
  Alcotest.(check (float 1e-3)) "max = e^{bT}" (Float.exp (1.1 *. 1.5)) r.value;
  let rmin = Pontryagin.solve di ~x0:[| 1. |] ~horizon:1.5 ~sense:`Min (`Coord 0) in
  Alcotest.(check (float 1e-3)) "min = e^{aT}" (Float.exp (0.2 *. 1.5)) rmin.value

let test_bangbang_switch () =
  (* horizon 2: switch at exactly t = 1, value = 2²/4 = 1 *)
  let di = clock_di () in
  let r = Pontryagin.solve ~steps:500 di ~x0:[| 0.; 0. |] ~horizon:2. ~sense:`Max (`Coord 1) in
  Alcotest.(check (float 1e-3)) "value T^2/4" 1. r.value;
  (match Pontryagin.switch_times r ~coord:0 with
  | [ s ] -> Alcotest.(check (float 0.02)) "switch at T/2" 1. s
  | l ->
      Alcotest.failf "expected one switch, got %d (%s)" (List.length l)
        (String.concat "," (List.map (Printf.sprintf "%.3f") l)))

let test_linear_objective () =
  (* maximize x1 + x2 for ẋ = (θ1, θ2), θ ∈ [0,1]²: value = x0 sum + 2T *)
  let di = Fixture.di ~lo:[| 0.; 0. |] ~hi:[| 1.; 1. |] Expr.[| theta 0; theta 1 |] in
  let r =
    Pontryagin.solve di ~x0:[| 0.; 0. |] ~horizon:3. ~sense:`Max
      (`Linear [| 1.; 1. |])
  in
  Alcotest.(check (float 1e-6)) "linear objective" 6. r.value

let test_result_trajectory_consistent () =
  let di = integrator_di () in
  let r = Pontryagin.solve ~steps:100 di ~x0:[| 0. |] ~horizon:1. ~sense:`Max (`Coord 0) in
  Alcotest.(check int) "grid size" 101 (Array.length r.times);
  Alcotest.(check int) "states" 101 (Array.length r.x);
  Alcotest.(check int) "controls" 100 (Array.length r.control);
  Alcotest.(check (float 1e-12)) "starts at x0" 0. r.x.(0).(0);
  Alcotest.(check (float 1e-9)) "final state matches value" r.value r.x.(100).(0);
  (* costate of the integrator is constant = c *)
  Alcotest.(check (float 1e-9)) "terminal costate" 1. r.p.(100).(0);
  Alcotest.(check (float 1e-9)) "initial costate" 1. r.p.(0).(0)

let test_min_max_ordering () =
  let di = exponential_di (-0.5) 0.7 in
  let lo = (Pontryagin.solve di ~x0:[| 1. |] ~horizon:1. ~sense:`Min (`Coord 0)).value in
  let hi = (Pontryagin.solve di ~x0:[| 1. |] ~horizon:1. ~sense:`Max (`Coord 0)).value in
  Alcotest.(check bool) "min <= max" true (lo <= hi)

let test_bound_series () =
  let di = integrator_di () in
  let series =
    Pontryagin.bound_series di ~x0:[| 0. |] ~coord:0 ~times:[| 0.; 0.5; 1. |]
  in
  let lo0, hi0 = series.(0) in
  Alcotest.(check (float 1e-12)) "t=0 lo" 0. lo0;
  Alcotest.(check (float 1e-12)) "t=0 hi" 0. hi0;
  let lo1, hi1 = series.(2) in
  Alcotest.(check (float 1e-6)) "t=1 lo" (-1.) lo1;
  Alcotest.(check (float 1e-6)) "t=1 hi" 1. hi1;
  (* envelope of the pure integrator is monotone in T *)
  let lo05, hi05 = series.(1) in
  Alcotest.(check bool) "monotone" true (lo1 <= lo05 && hi05 <= hi1)

let test_validation () =
  let di = integrator_di () in
  Alcotest.check_raises "bad horizon"
    (Invalid_argument "Pontryagin.solve: need horizon > 0") (fun () ->
      ignore (Pontryagin.solve di ~x0:[| 0. |] ~horizon:0. ~sense:`Max (`Coord 0)));
  Alcotest.check_raises "bad coord"
    (Invalid_argument "Pontryagin: coordinate out of range") (fun () ->
      ignore (Pontryagin.solve di ~x0:[| 0. |] ~horizon:1. ~sense:`Max (`Coord 3)))

(* soundness: Pontryagin max dominates any random admissible control *)
let prop_dominates_random_controls =
  QCheck.Test.make ~name:"max dominates sampled controls" ~count:20
    (QCheck.make (QCheck.Gen.int_range 0 10_000)) (fun seed ->
      let di = clock_di () in
      let rng = Rng.create seed in
      let hi =
        (Pontryagin.solve ~steps:200 di ~x0:[| 0.; 0. |] ~horizon:2. ~sense:`Max
           (`Coord 1))
          .value
      in
      let states =
        Reach.sample_states di ~x0:[| 0.; 0. |] ~horizon:2. ~n_controls:10 rng
      in
      List.for_all (fun x -> x.(1) <= hi +. 1e-4) states)

let suites =
  [
    ( "pontryagin",
      [
        Alcotest.test_case "pure integrator" `Quick test_integrator_bounds;
        Alcotest.test_case "exponential growth" `Quick test_exponential_growth;
        Alcotest.test_case "bang-bang switch at T/2" `Quick test_bangbang_switch;
        Alcotest.test_case "linear objective" `Quick test_linear_objective;
        Alcotest.test_case "result trajectory consistency" `Quick test_result_trajectory_consistent;
        Alcotest.test_case "min <= max" `Quick test_min_max_ordering;
        Alcotest.test_case "bound series" `Quick test_bound_series;
        Alcotest.test_case "validation" `Quick test_validation;
        QCheck_alcotest.to_alcotest prop_dominates_random_controls;
      ] );
  ]
