open Umf_numerics
open Umf_diffinc

(* the clock system: max x2(2) = 1 needs a switch at t = 1, so the
   hierarchy is strict: constant theta gives 0, piecewise-2 achieves
   1 (switch aligned with the grid), imprecise achieves 1 *)
let clock () =
  Fixture.di ~lo:[| -1. |] ~hi:[| 1. |]
    Expr.[| const 1.; theta 0 *: (var 0 -: const 1.) |]

let x0 = [| 0.; 0. |]

let test_uncertain_limited () =
  let _, hi = Scenario.extremal_coord Scenario.Uncertain (clock ()) ~x0 ~coord:1 ~horizon:2. in
  (* constant theta: integral of theta*(t-1) over [0,2] = 0 *)
  Alcotest.(check (float 1e-6)) "constant theta achieves 0" 0. hi

let test_piecewise_2_achieves_optimum () =
  let _, hi =
    Scenario.extremal_coord (Scenario.Piecewise 2) (clock ()) ~x0 ~coord:1 ~horizon:2.
  in
  Alcotest.(check (float 1e-3)) "two pieces reach T^2/4" 1. hi

let test_hierarchy_monotone () =
  let di = clock () in
  let hi s = snd (Scenario.extremal_coord s di ~x0 ~coord:1 ~horizon:2.) in
  let h1 = hi Scenario.Uncertain in
  let h2 = hi (Scenario.Piecewise 2) in
  let h4 = hi (Scenario.Piecewise 4) in
  let hinf = hi Scenario.Imprecise in
  Alcotest.(check bool)
    (Printf.sprintf "monotone: %.3f <= %.3f <= %.3f <= %.3f" h1 h2 h4 hinf)
    true
    (h1 <= h2 +. 1e-6 && h2 <= h4 +. 1e-3 && h4 <= hinf +. 1e-3)

(* 2^64 controls: the exhaustive-search count must not overflow into a
   small integer, or the search would try to enumerate all of them *)
let test_piecewise_many_pieces () =
  let _, hi =
    Scenario.extremal_coord ~grid:2 ~dt:0.05 (Scenario.Piecewise 64) (clock ())
      ~x0 ~coord:1 ~horizon:2.
  in
  Alcotest.(check (float 1e-2)) "64 pieces reach T^2/4" 1. hi

let test_piecewise_1_equals_uncertain () =
  let di = Fixture.di ~lo:[| 1. |] ~hi:[| 2. |] Expr.[| theta 0 -: var 0 |] in
  let u_lo, u_hi =
    Scenario.extremal_coord ~grid:5 Scenario.Uncertain di ~x0:[| 0. |] ~coord:0 ~horizon:1.
  in
  let p_lo, p_hi =
    Scenario.extremal_coord ~grid:5 (Scenario.Piecewise 1) di ~x0:[| 0. |] ~coord:0 ~horizon:1.
  in
  Alcotest.(check (float 1e-3)) "lower equal" u_lo p_lo;
  Alcotest.(check (float 1e-3)) "upper equal" u_hi p_hi

let test_piecewise_within_imprecise () =
  (* SIR-like: piecewise envelopes never exceed the Pontryagin bound *)
  let di = Fixture.sir_like () in
  let x0 = [| 0.7; 0.3 |] in
  let p_lo, p_hi =
    Scenario.extremal_coord ~grid:3 (Scenario.Piecewise 3) di ~x0 ~coord:1 ~horizon:3.
  in
  let i_lo, i_hi =
    Scenario.extremal_coord ~steps:200 Scenario.Imprecise di ~x0 ~coord:1 ~horizon:3.
  in
  Alcotest.(check bool) "piecewise within imprecise" true
    (i_lo <= p_lo +. 1e-3 && p_hi <= i_hi +. 1e-3);
  (* and strictly better than constant theta on the upper side *)
  let _, u_hi = Scenario.extremal_coord ~grid:7 Scenario.Uncertain di ~x0 ~coord:1 ~horizon:3. in
  Alcotest.(check bool)
    (Printf.sprintf "piecewise beats constant: %.4f > %.4f" p_hi u_hi)
    true (p_hi > u_hi +. 0.01)

let test_deterministic_degenerate () =
  let di = clock () in
  (* the known control theta(t) = sign(t - 1) attains exactly T^2/4 *)
  let control t = if t < 1. then [| -1. |] else [| 1. |] in
  let lo, hi =
    Scenario.extremal_coord (Scenario.Deterministic control) di ~x0 ~coord:1
      ~horizon:2.
  in
  Alcotest.(check (float 1e-6)) "lo = hi" lo hi;
  Alcotest.(check (float 1e-3)) "value" 1. hi

let test_rate_limited_interpolates () =
  let di = clock () in
  let hi s = snd (Scenario.extremal_coord ~grid:5 s di ~x0 ~coord:1 ~horizon:2.) in
  let h0 = hi (Scenario.RateLimited 0.) in
  let h_slow = hi (Scenario.RateLimited 0.5) in
  let h_fast = hi (Scenario.RateLimited 50.) in
  let h_imp = hi Scenario.Imprecise in
  (* L = 0 is the constant case (value 0 on the clock system) *)
  Alcotest.(check (float 1e-6)) "L=0 = uncertain" 0. h0;
  Alcotest.(check bool)
    (Printf.sprintf "monotone in L: %.3f <= %.3f <= %.3f" h0 h_slow h_fast)
    true
    (h0 <= h_slow +. 1e-6 && h_slow <= h_fast +. 1e-3);
  (* a slew-limited adversary cannot reach the bang-bang optimum *)
  Alcotest.(check bool)
    (Printf.sprintf "L=0.5 strictly below imprecise: %.3f < %.3f" h_slow h_imp)
    true
    (h_slow < h_imp -. 0.05);
  (* a fast slew rate essentially recovers it *)
  Alcotest.(check bool)
    (Printf.sprintf "L=50 near imprecise: %.3f vs %.3f" h_fast h_imp)
    true
    (h_fast > h_imp -. 0.08)

let test_validation () =
  let di = clock () in
  Alcotest.check_raises "bad k"
    (Invalid_argument "Scenario.extremal_coord: need k >= 1") (fun () ->
      ignore
        (Scenario.extremal_coord (Scenario.Piecewise 0) di ~x0 ~coord:1 ~horizon:1.));
  Alcotest.check_raises "bad coord"
    (Invalid_argument "Scenario.extremal_coord: coordinate out of range")
    (fun () ->
      ignore (Scenario.extremal_coord Scenario.Uncertain di ~x0 ~coord:5 ~horizon:1.))

let suites =
  [
    ( "scenario",
      [
        Alcotest.test_case "uncertain limited" `Quick test_uncertain_limited;
        Alcotest.test_case "piecewise-2 optimal on clock" `Quick test_piecewise_2_achieves_optimum;
        Alcotest.test_case "hierarchy monotone" `Quick test_hierarchy_monotone;
        Alcotest.test_case "piecewise-1 = uncertain" `Quick test_piecewise_1_equals_uncertain;
        Alcotest.test_case "piecewise-64: sweep search, no overflow" `Quick
          test_piecewise_many_pieces;
        Alcotest.test_case "deterministic degenerate" `Quick test_deterministic_degenerate;
        Alcotest.test_case "rate-limited interpolates" `Slow test_rate_limited_interpolates;
        Alcotest.test_case "piecewise within imprecise (SIR)" `Slow test_piecewise_within_imprecise;
        Alcotest.test_case "validation" `Quick test_validation;
      ] );
  ]
