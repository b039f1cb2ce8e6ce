open Umf_numerics
open Umf_meanfield
open Umf_models

let p1 = { Loadbalance.default_params with Loadbalance.d = 1 }

let p2 = Loadbalance.default_params

let test_fixed_point_closed_form_d1 () =
  (* d = 1: geometric tail rho^k *)
  let fp = Loadbalance.fixed_point p1 ~lambda:0.7 in
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "x%d" (i + 1))
        (0.7 ** float_of_int (i + 1))
        v)
    fp

let test_fixed_point_closed_form_d2 () =
  (* d = 2: doubly exponential rho^(2^k - 1) *)
  let fp = Loadbalance.fixed_point p2 ~lambda:0.7 in
  Alcotest.(check (float 1e-12)) "x1" 0.7 fp.(0);
  Alcotest.(check (float 1e-12)) "x2" (0.7 ** 3.) fp.(1);
  Alcotest.(check (float 1e-12)) "x3" (0.7 ** 7.) fp.(2)

let test_drift_vanishes_at_fixed_point () =
  (* the closed form is the fixed point of the untruncated system: all
     coordinates except the last are exact; the last one carries the
     truncation error lambda * x_{kmax}^d *)
  List.iter
    (fun p ->
      let m = Loadbalance.make p in
      let fp = Loadbalance.fixed_point p ~lambda:0.7 in
      let f = Model.drift m fp [| 0.7 |] in
      let kk = p.Loadbalance.k_max in
      for i = 0 to kk - 2 do
        Alcotest.(check (float 1e-12))
          (Printf.sprintf "f%d exactly 0 (d=%d)" (i + 1) p.Loadbalance.d)
          0. f.(i)
      done;
      let truncation =
        0.7 *. (fp.(kk - 1) ** float_of_int p.Loadbalance.d)
      in
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "last coordinate carries truncation (d=%d)"
           p.Loadbalance.d)
        (-.truncation) f.(kk - 1))
    [ p1; p2 ]

let test_ode_converges_to_fixed_point () =
  let di = Loadbalance.di p2 in
  let eq =
    Umf_reference.Ode_ref.integrate_to
      (fun _t x -> di.Umf_diffinc.Di.drift x [| 0.7 |])
      ~t0:0. ~y0:(Loadbalance.x0_empty p2) ~t1:200. ~dt:0.01
  in
  Alcotest.(check bool) "ODE reaches the closed form" true
    (Vec.approx_equal ~tol:1e-6 (Loadbalance.fixed_point p2 ~lambda:0.7) eq)

let test_power_of_two_wins () =
  (* the classic result: JSQ(2) has a far shorter tail than random *)
  let q d =
    let p = { p2 with Loadbalance.d } in
    Loadbalance.mean_queue (Loadbalance.fixed_point p ~lambda:0.9)
  in
  Alcotest.(check bool)
    (Printf.sprintf "mean queue d=2 (%.2f) << d=1 (%.2f)" (q 2) (q 1))
    true
    (* at k_max = 8 the geometric d=1 tail is itself truncated, which
       understates the d=1 queue; 0.5 is still a decisive margin *)
    (q 2 < 0.5 *. q 1)

let test_ssa_preserves_tail_monotonicity () =
  let m = Loadbalance.make p2 in
  let rng = Rng.create 5 in
  let traj =
    Ssa.trajectory m ~n:200 ~x0:(Loadbalance.x0_empty p2)
      ~policy:(Policy.constant [| 0.8 |]) ~tmax:10. rng
  in
  Array.iter
    (fun x ->
      Alcotest.(check bool) "tail monotone" true (Loadbalance.tail_monotone x))
    traj.Ode.Traj.states

let test_ssa_matches_fluid () =
  let m = Loadbalance.make p2 in
  let avg =
    Ssa.time_average m ~n:3000 ~x0:(Loadbalance.x0_empty p2)
      ~policy:(Policy.constant [| 0.8 |]) ~tmax:80. ~warmup:30.
      ~reward:Loadbalance.mean_queue (Rng.create 7)
  in
  let fluid = Loadbalance.mean_queue (Loadbalance.fixed_point p2 ~lambda:0.8) in
  Alcotest.(check bool)
    (Printf.sprintf "SSA %.3f near fluid %.3f" avg fluid)
    true
    (Float.abs (avg -. fluid) < 0.05)

let test_imprecise_bounds_bracket_equilibria () =
  let di = Loadbalance.di p2 in
  (* long-horizon bounds on x1 contain the constant-lambda equilibria *)
  let lo =
    (Umf_diffinc.Pontryagin.solve ~steps:300 di ~x0:(Loadbalance.x0_empty p2)
       ~horizon:40. ~sense:`Min (`Coord 0))
      .Umf_diffinc.Pontryagin.value
  in
  let hi =
    (Umf_diffinc.Pontryagin.solve ~steps:300 di ~x0:(Loadbalance.x0_empty p2)
       ~horizon:40. ~sense:`Max (`Coord 0))
      .Umf_diffinc.Pontryagin.value
  in
  List.iter
    (fun l ->
      let fp = Loadbalance.fixed_point p2 ~lambda:l in
      (* the T=40 transient from empty is still ~5e-3 below the
         heaviest-traffic equilibrium; allow that residual *)
      Alcotest.(check bool)
        (Printf.sprintf "x1 equilibrium for lambda=%g inside [%.3f, %.3f]" l lo hi)
        true
        (lo -. 1e-3 <= fp.(0) && fp.(0) <= hi +. 6e-3))
    [ 0.5; 0.7; 0.9 ]

let test_validation () =
  Alcotest.check_raises "lambda >= 1"
    (Invalid_argument "Loadbalance.fixed_point: need lambda < 1") (fun () ->
      ignore (Loadbalance.fixed_point p2 ~lambda:1.))

let suites =
  [
    ( "loadbalance",
      [
        Alcotest.test_case "closed form d=1" `Quick test_fixed_point_closed_form_d1;
        Alcotest.test_case "closed form d=2" `Quick test_fixed_point_closed_form_d2;
        Alcotest.test_case "drift vanishes at fp" `Quick test_drift_vanishes_at_fixed_point;
        Alcotest.test_case "ODE converges to fp" `Quick test_ode_converges_to_fixed_point;
        Alcotest.test_case "power of two choices" `Quick test_power_of_two_wins;
        Alcotest.test_case "SSA tail monotone" `Quick test_ssa_preserves_tail_monotonicity;
        Alcotest.test_case "SSA matches fluid" `Slow test_ssa_matches_fluid;
        Alcotest.test_case "imprecise bounds bracket" `Slow test_imprecise_bounds_bracket_equilibria;
        Alcotest.test_case "validation" `Quick test_validation;
      ] );
  ]
