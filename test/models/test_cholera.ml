open Umf_numerics
module Diff = Umf_reference.Diff
open Umf_meanfield
open Umf_models

let p = Cholera.default_params

let test_drift_structure () =
  let m = Cholera.model p in
  (* at x0 = (0.9, 0.1, 0): no water infection yet, shedding positive *)
  let f = Population.drift m Cholera.x0 [| 2. |] in
  (* dS = -a S + rho (1 - S - I) = -0.009 + 0.2*0 = -0.009 *)
  Alcotest.(check (float 1e-12)) "dS" (-.(p.Cholera.a *. 0.9)) f.(0);
  (* dW = xi I - delta W = 0.1 *)
  Alcotest.(check (float 1e-12)) "dW" (p.Cholera.xi *. 0.1) f.(2)

let test_water_drives_infection () =
  let m = Cholera.model p in
  let x = [| 0.8; 0.1; 0.5 |] in
  let f_lo = Population.drift m x [| 0.5 |] in
  let f_hi = Population.drift m x [| 4. |] in
  Alcotest.(check bool) "more rainfall, faster infection" true
    (f_hi.(1) > f_lo.(1));
  Alcotest.(check (float 1e-9)) "difference = dtheta * S * W"
    (3.5 *. 0.8 *. 0.5)
    (f_hi.(1) -. f_lo.(1))

let test_symbolic_jacobian_vs_fd () =
  let s = Cholera.make p in
  let x = [| 0.7; 0.2; 0.4 |] and th = [| 2. |] in
  let sym = Model.jacobian s x th in
  let m = Cholera.model p in
  let fd = Diff.jacobian (fun y -> Population.drift m y th) x in
  Alcotest.(check bool) "symbolic = FD" true (Mat.approx_equal ~tol:1e-5 sym fd)

let test_affine_in_theta () =
  Alcotest.(check bool) "affine" true
    (Model.affine_in_theta (Cholera.make p))

let test_transition_structure () =
  (* epidemiological transitions never touch W; reservoir transitions
     never touch the population; infection conserves S + I *)
  let m = Cholera.model p in
  Array.iter
    (fun tr ->
      let ch = tr.Population.change in
      match tr.Population.name with
      | "infection" ->
          Alcotest.(check (float 1e-12)) "infection conserves S+I" 0.
            (ch.(0) +. ch.(1));
          Alcotest.(check (float 1e-12)) "infection leaves W" 0. ch.(2)
      | "recovery" | "immunity-loss" ->
          Alcotest.(check (float 1e-12)) (tr.Population.name ^ " leaves W") 0.
            ch.(2)
      | "shedding" | "decay" ->
          Alcotest.(check (float 1e-12)) (tr.Population.name ^ " leaves S") 0.
            ch.(0);
          Alcotest.(check (float 1e-12)) (tr.Population.name ^ " leaves I") 0.
            ch.(1)
      | other -> Alcotest.failf "unexpected transition %s" other)
    m.Population.transitions

let test_endemic_equilibrium () =
  (* with constant theta, the fluid settles to an endemic equilibrium
     with consistent W = xi I / delta *)
  let di = Cholera.di p in
  let eq =
    Ode.fixed_point ~max_time:2000.
      (fun _t x -> di.Umf_diffinc.Di.drift x [| 2. |])
      Cholera.x0
  in
  Alcotest.(check (float 1e-6)) "W = xi I / delta"
    (p.Cholera.xi *. eq.(1) /. p.Cholera.delta)
    eq.(2);
  Alcotest.(check bool) "endemic (I > 0)" true (eq.(1) > 1e-3)

let test_pontryagin_bounds_3d () =
  let di = Cholera.di p in
  let lo =
    (Umf_diffinc.Pontryagin.solve ~steps:200 di ~x0:Cholera.x0 ~horizon:4.
       ~sense:`Min (`Coord 1))
      .Umf_diffinc.Pontryagin.value
  in
  let hi =
    (Umf_diffinc.Pontryagin.solve ~steps:200 di ~x0:Cholera.x0 ~horizon:4.
       ~sense:`Max (`Coord 1))
      .Umf_diffinc.Pontryagin.value
  in
  Alcotest.(check bool) "ordered" true (lo <= hi);
  (* rainfall variation matters: the bounds are separated *)
  Alcotest.(check bool)
    (Printf.sprintf "non-trivial gap [%.4f, %.4f]" lo hi)
    true
    (hi -. lo > 0.01);
  (* constant-theta envelope inside *)
  let u_lo, u_hi =
    Umf_diffinc.Uncertain.extremal_coord ~grid:5 di ~x0:Cholera.x0 ~coord:1 ~horizon:4.
  in
  Alcotest.(check bool) "uncertain within imprecise" true
    (lo <= u_lo +. 1e-4 && u_hi <= hi +. 1e-4)

let test_certified_hull_3d () =
  let s = Cholera.make p in
  let h =
    Umf_diffinc.Certified.hull_bounds ~clip:Cholera.state_clip s ~x0:Cholera.x0
      ~horizon:2. ~dt:0.01
  in
  (* sound w.r.t. a few constant-theta solutions *)
  let di = Cholera.di p in
  List.iter
    (fun th ->
      let traj =
        Umf_diffinc.Di.integrate_constant di ~theta:[| th |] ~x0:Cholera.x0
          ~horizon:2. ~dt:0.01
      in
      List.iter
        (fun t ->
          Alcotest.(check bool)
            (Printf.sprintf "theta=%g inside hull at t=%g" th t)
            true
            (Umf_diffinc.Hull.contains ~tol:1e-4 h t (Ode.Traj.at traj t)))
        [ 0.5; 1.; 2. ])
    [ 0.5; 2.; 4. ]

let test_ssa_runs () =
  let m = Cholera.model p in
  let rng = Rng.create 3 in
  let x =
    Ssa.final m ~n:500 ~x0:Cholera.x0 ~policy:(Policy.constant [| 2. |])
      ~tmax:5. rng
  in
  Alcotest.(check bool) "valid state" true
    (x.(0) >= 0. && x.(1) >= 0. && x.(2) >= 0. && x.(0) +. x.(1) <= 1. +. 1e-9)

let suites =
  [
    ( "cholera",
      [
        Alcotest.test_case "drift structure" `Quick test_drift_structure;
        Alcotest.test_case "water drives infection" `Quick test_water_drives_infection;
        Alcotest.test_case "symbolic jacobian vs FD" `Quick test_symbolic_jacobian_vs_fd;
        Alcotest.test_case "affine in theta" `Quick test_affine_in_theta;
        Alcotest.test_case "transition structure" `Quick test_transition_structure;
        Alcotest.test_case "endemic equilibrium" `Quick test_endemic_equilibrium;
        Alcotest.test_case "3-D Pontryagin bounds" `Quick test_pontryagin_bounds_3d;
        Alcotest.test_case "3-D certified hull" `Quick test_certified_hull_3d;
        Alcotest.test_case "SSA runs" `Quick test_ssa_runs;
      ] );
  ]
