open Umf_numerics
module Diff = Umf_reference.Diff
open Umf_meanfield
open Umf_models

let p = Sir.default_params

(* Eq. (11) of the paper in closed form — the golden reference the
   symbolic model must keep reproducing *)
let drift x theta =
  let xs = x.(0) and xi = x.(1) and th = theta.(0) in
  [|
    p.Sir.c
    -. ((p.Sir.a +. p.Sir.c) *. xs)
    -. (p.Sir.c *. xi)
    -. (th *. xs *. xi);
    (p.Sir.a *. xs) +. (th *. xs *. xi) -. (p.Sir.b *. xi);
  |]

let jacobian x theta =
  let xs = x.(0) and xi = x.(1) and th = theta.(0) in
  Mat.of_arrays
    [|
      [| -.(p.Sir.a +. p.Sir.c) -. (th *. xi); -.p.Sir.c -. (th *. xs) |];
      [| p.Sir.a +. (th *. xi); (th *. xs) -. p.Sir.b |];
    |]

let test_default_params () =
  Alcotest.(check (float 1e-12)) "a" 0.1 p.Sir.a;
  Alcotest.(check (float 1e-12)) "b" 5. p.Sir.b;
  Alcotest.(check (float 1e-12)) "c" 1. p.Sir.c;
  Alcotest.(check (float 1e-12)) "x0 S" 0.7 Sir.x0.(0);
  Alcotest.(check (float 1e-12)) "x0 I" 0.3 Sir.x0.(1)

let test_model_drift_matches_closed_form () =
  let m = Sir.model p in
  let check x theta =
    let from_classes = Population.drift m x [| theta |] in
    let closed = drift x [| theta |] in
    Alcotest.(check bool)
      (Printf.sprintf "drift at (%g, %g), theta=%g" x.(0) x.(1) theta)
      true
      (Vec.approx_equal ~tol:1e-12 closed from_classes)
  in
  List.iter
    (fun (s, i, th) -> check [| s; i |] th)
    [ (0.7, 0.3, 1.); (0.5, 0.1, 5.); (0.9, 0.05, 10.); (0.2, 0.6, 3.) ]

let test_model3_reduction () =
  (* projecting the 3-variable drift onto (S, I) with R = 1 - S - I must
     equal the reduced drift *)
  let m3 = Sir.model3 p in
  List.iter
    (fun (s, i, th) ->
      let r = 1. -. s -. i in
      let f3 = Population.drift m3 [| s; i; r |] [| th |] in
      let f2 = drift [| s; i |] [| th |] in
      Alcotest.(check (float 1e-12)) "fS matches" f2.(0) f3.(0);
      Alcotest.(check (float 1e-12)) "fI matches" f2.(1) f3.(1);
      (* conservation: the 3-var drift sums to zero *)
      Alcotest.(check (float 1e-12)) "mass conserved" 0. (Vec.sum f3))
    [ (0.7, 0.3, 1.); (0.5, 0.1, 5.); (0.3, 0.3, 10.) ]

let test_jacobian_matches_fd () =
  let x = [| 0.6; 0.2 |] and theta = [| 4. |] in
  let analytic = jacobian x theta in
  let fd = Diff.jacobian (fun y -> drift y theta) x in
  Alcotest.(check bool) "jacobian matches FD" true
    (Mat.approx_equal ~tol:1e-5 analytic fd);
  let exact = Model.jacobian (Sir.make p) x theta in
  Alcotest.(check bool) "symbolic jacobian matches closed form" true
    (Mat.approx_equal ~tol:1e-12 analytic exact)

let test_di_wiring () =
  let di = Sir.di p in
  Alcotest.(check int) "dim 2" 2 di.Umf_diffinc.Di.dim;
  let f = di.Umf_diffinc.Di.drift Sir.x0 [| 2. |] in
  Alcotest.(check bool) "drift wired" true
    (Vec.approx_equal f (drift Sir.x0 [| 2. |]))

let test_policy_theta1_bounds () =
  let pol = Sir.policy_theta1 p in
  let inst = pol.Policy.instantiate () in
  let th = inst.Policy.theta 0. Sir.x0 in
  Alcotest.(check (float 1e-12)) "starts at theta_max" p.Sir.theta_max th.(0);
  inst.Policy.notify 1. [| 0.4; 0.3 |];
  Alcotest.(check (float 1e-12)) "drops below 0.5" p.Sir.theta_min
    (inst.Policy.theta 1. [| 0.4; 0.3 |]).(0)

let test_policy_theta2_rate () =
  let pol = Sir.policy_theta2 p in
  let inst = pol.Policy.instantiate () in
  Alcotest.(check (float 1e-12)) "rate 5 X_I" (5. *. 0.3)
    (inst.Policy.jump_rate 0. Sir.x0)

let test_invariant_simplex_under_ssa () =
  (* S + I <= 1 and both non-negative along a stochastic run *)
  let m = Sir.model p in
  let rng = Rng.create 3 in
  let traj =
    Ssa.trajectory m ~n:200 ~x0:Sir.x0 ~policy:(Sir.policy_theta1 p) ~tmax:5. rng
  in
  Array.iter
    (fun x ->
      Alcotest.(check bool) "simplex invariant" true
        (x.(0) >= -1e-9 && x.(1) >= -1e-9 && x.(0) +. x.(1) <= 1. +. 1e-9))
    traj.Ode.Traj.states

let test_fluid_limit_decay () =
  (* with theta fixed the infection dies towards the endemic level:
     integrate the ODE and check I stays in (0, 0.3] and converges *)
  let di = Sir.di p in
  let traj =
    Umf_diffinc.Di.integrate_constant di ~theta:[| 1. |] ~x0:Sir.x0 ~horizon:50.
      ~dt:0.01
  in
  let final = Ode.Traj.last traj in
  let f = drift final [| 1. |] in
  Alcotest.(check bool) "reached equilibrium" true (Vec.norm_inf f < 1e-6);
  Alcotest.(check bool) "endemic level positive" true (final.(1) > 0.)

let prop_drift_keeps_simplex_invariant =
  (* on the boundary of the simplex the drift never points outward *)
  let gen =
    QCheck.Gen.(pair (float_range 0. 1.) (float_range 1. 10.))
  in
  QCheck.Test.make ~name:"drift points inward on simplex boundary" ~count:200
    (QCheck.make gen) (fun (s, th) ->
      (* edge I = 0 *)
      let f_i0 = drift [| s; 0. |] [| th |] in
      (* edge S = 0 *)
      let i = s in
      let f_s0 = drift [| 0.; i |] [| th |] in
      (* edge S + I = 1 *)
      let f_edge = drift [| s; 1. -. s |] [| th |] in
      f_i0.(1) >= -1e-12 && f_s0.(0) >= -1e-12
      && f_edge.(0) +. f_edge.(1) <= 1e-12)

let suites =
  [
    ( "sir",
      [
        Alcotest.test_case "default parameters" `Quick test_default_params;
        Alcotest.test_case "classes match closed form" `Quick test_model_drift_matches_closed_form;
        Alcotest.test_case "3-var reduction" `Quick test_model3_reduction;
        Alcotest.test_case "jacobian vs FD" `Quick test_jacobian_matches_fd;
        Alcotest.test_case "di wiring" `Quick test_di_wiring;
        Alcotest.test_case "policy theta1" `Quick test_policy_theta1_bounds;
        Alcotest.test_case "policy theta2 rate" `Quick test_policy_theta2_rate;
        Alcotest.test_case "SSA keeps simplex" `Quick test_invariant_simplex_under_ssa;
        Alcotest.test_case "fluid equilibrium" `Quick test_fluid_limit_decay;
        QCheck_alcotest.to_alcotest prop_drift_keeps_simplex_invariant;
      ] );
  ]
