open Umf_numerics
open Umf_diffinc

(* controlled growth: dx = th x, th in [-0.5, 0.5], x0 = 0.5:
   max x(t) = 0.5 e^{0.5 t} *)
let growth () =
  Fixture.di ~lo:[| -0.5 |] ~hi:[| 0.5 |] Expr.[| theta 0 *: var 0 |]

let test_safe_case () =
  (* x stays below 0.5 e^1 ~ 0.824 over [0, 2]: bound 1.0 is safe *)
  let di = growth () in
  match Safety.verify di ~x0:[| 0.5 |] ~horizon:2. [ Safety.le ~coord:0 ~dim:1 1.5 ] with
  | Safety.Safe margin ->
      Alcotest.(check bool)
        (Printf.sprintf "positive margin %.3f" margin)
        true
        (margin > 0. && margin < 1.)
  | Safety.Violated _ -> Alcotest.fail "expected safe"

let test_violated_case () =
  let di = growth () in
  match
    Safety.verify di ~x0:[| 0.5 |] ~horizon:2. [ Safety.le ~coord:0 ~dim:1 1.0 ]
  with
  | Safety.Safe _ -> Alcotest.fail "expected violation (max ~ 1.36)"
  | Safety.Violated w ->
      Alcotest.(check bool) "value above bound" true (w.Safety.value > 1.0);
      Alcotest.(check bool) "time within horizon" true
        (w.Safety.time > 0. && w.Safety.time <= 2.);
      (* the witness control must actually reproduce the violation *)
      let traj =
        Di.integrate_control di
          ~control:(fun t _x ->
            let r = w.Safety.control in
            let k = Array.length r.Pontryagin.control in
            let h = r.Pontryagin.times.(1) -. r.Pontryagin.times.(0) in
            let i = Stdlib.min (k - 1) (Stdlib.max 0 (int_of_float (t /. h))) in
            r.Pontryagin.control.(i))
          ~x0:[| 0.5 |] ~horizon:w.Safety.time ~dt:1e-3
      in
      Alcotest.(check (float 5e-3)) "witness reproduces value" w.Safety.value
        (Ode.Traj.last traj).(0)

let test_ge_constraint () =
  (* x can crash to 0.5 e^{-1} ~ 0.184: requiring x >= 0.3 is violated *)
  let di = growth () in
  (match
     Safety.verify di ~x0:[| 0.5 |] ~horizon:2. [ Safety.ge ~coord:0 ~dim:1 0.3 ]
   with
  | Safety.Safe _ -> Alcotest.fail "expected violation"
  | Safety.Violated w ->
      Alcotest.(check bool) "label mentions >=" true
        (String.length w.Safety.constraint_.Safety.label > 0));
  match
    Safety.verify di ~x0:[| 0.5 |] ~horizon:2. [ Safety.ge ~coord:0 ~dim:1 0.1 ]
  with
  | Safety.Safe _ -> ()
  | Safety.Violated _ -> Alcotest.fail "x >= 0.1 should be safe"

let test_initial_violation () =
  let di = growth () in
  match
    Safety.verify di ~x0:[| 0.5 |] ~horizon:1. [ Safety.le ~coord:0 ~dim:1 0.4 ]
  with
  | Safety.Safe _ -> Alcotest.fail "x0 already violates"
  | Safety.Violated w ->
      Alcotest.(check (float 1e-12)) "violation at t=0" 0. w.Safety.time;
      Alcotest.(check (float 1e-12)) "value is x0" 0.5 w.Safety.value

let test_multiple_constraints () =
  let di = growth () in
  let cs =
    [ Safety.le ~coord:0 ~dim:1 2.; Safety.ge ~coord:0 ~dim:1 0.05 ]
  in
  match Safety.verify di ~x0:[| 0.5 |] ~horizon:2. cs with
  | Safety.Safe margin -> Alcotest.(check bool) "both safe" true (margin > 0.)
  | Safety.Violated _ -> Alcotest.fail "both constraints hold"

let test_sir_design_check () =
  (* the sir_epidemic example's conclusion, as a formal verification:
     b = 5 violates xI <= 0.12 over a long horizon, b = 7 satisfies it *)
  let module Sir = Umf_models.Sir in
  let fragile = Sir.di { Sir.default_params with Sir.b = 5. } in
  let robust = Sir.di { Sir.default_params with Sir.b = 7. } in
  let c = [ Safety.le ~label:"infected below 12%" ~coord:1 ~dim:2 0.12 ] in
  (match Safety.verify ~steps:200 ~check_points:10 fragile ~x0:[| 0.9; 0.05 |] ~horizon:25. c with
  | Safety.Safe _ -> Alcotest.fail "b=5 should be unsafe"
  | Safety.Violated w ->
      Alcotest.(check bool) "late-time violation" true (w.Safety.time > 1.));
  match Safety.verify ~steps:200 ~check_points:10 robust ~x0:[| 0.9; 0.05 |] ~horizon:25. c with
  | Safety.Safe margin ->
      Alcotest.(check bool) "b=7 safe with margin" true (margin > 0.)
  | Safety.Violated _ -> Alcotest.fail "b=7 should be safe"

let test_validation () =
  let di = growth () in
  Alcotest.check_raises "no constraints"
    (Invalid_argument "Safety.verify: no constraints") (fun () ->
      ignore (Safety.verify di ~x0:[| 0.5 |] ~horizon:1. []));
  Alcotest.check_raises "dimension"
    (Invalid_argument "Safety.verify: constraint c dimension mismatch")
    (fun () ->
      ignore
        (Safety.verify di ~x0:[| 0.5 |] ~horizon:1.
           [ { Safety.label = "c"; normal = [| 1.; 0. |]; bound = 1. } ]))

let suites =
  [
    ( "safety",
      [
        Alcotest.test_case "safe verdict with margin" `Quick test_safe_case;
        Alcotest.test_case "violation with witness" `Quick test_violated_case;
        Alcotest.test_case "lower-bound constraints" `Quick test_ge_constraint;
        Alcotest.test_case "initial violation" `Quick test_initial_violation;
        Alcotest.test_case "multiple constraints" `Quick test_multiple_constraints;
        Alcotest.test_case "SIR design verification" `Slow test_sir_design_check;
        Alcotest.test_case "validation" `Quick test_validation;
      ] );
  ]
