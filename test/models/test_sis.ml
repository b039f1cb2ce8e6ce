open Umf_numerics
open Umf_meanfield
open Umf_models

let p = Sis.default_params

(* closed-form drift, the golden reference for the symbolic model *)
let drift x theta =
  let xi = x.(0) and beta = theta.(0) in
  [|
    (p.Sis.a *. (1. -. xi))
    +. (beta *. xi *. (1. -. xi))
    -. (p.Sis.delta *. xi);
  |]

let test_drift_closed_form () =
  let m = Sis.make p in
  List.iter
    (fun (x, beta) ->
      let from_classes = Model.drift m [| x |] [| beta |] in
      let closed = drift [| x |] [| beta |] in
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "drift at x=%g beta=%g" x beta)
        closed.(0) from_classes.(0))
    [ (0.2, 1.); (0.5, 4.); (0.9, 2.); (0., 1.); (1., 4.) ]

let test_equilibrium_closed_form () =
  List.iter
    (fun beta ->
      let eq = Sis.equilibrium p ~beta in
      let f = drift [| eq |] [| beta |] in
      Alcotest.(check (float 1e-10))
        (Printf.sprintf "drift vanishes at eq (beta=%g)" beta)
        0. f.(0);
      Alcotest.(check bool) "eq in (0,1)" true (eq > 0. && eq < 1.))
    [ 1.; 2.; 3.; 4. ]

let test_equilibrium_matches_ode () =
  let eq_ode =
    Umf_reference.Ode_ref.fixed_point
      (fun _t x -> drift x [| 3. |])
      Sis.x0
  in
  Alcotest.(check (float 1e-6)) "ODE equilibrium" (Sis.equilibrium p ~beta:3.)
    eq_ode.(0)

let test_equilibrium_monotone_in_beta () =
  let e1 = Sis.equilibrium p ~beta:1. and e4 = Sis.equilibrium p ~beta:4. in
  Alcotest.(check bool) "higher contact rate, more infection" true (e4 > e1)

let test_imprecise_bounds_contain_equilibria () =
  (* the Pontryagin bounds at a long horizon contain every constant-beta
     equilibrium *)
  let di = Sis.di p in
  let lo =
    (Umf_diffinc.Pontryagin.solve di ~x0:Sis.x0 ~horizon:10. ~sense:`Min (`Coord 0)).value
  in
  let hi =
    (Umf_diffinc.Pontryagin.solve di ~x0:Sis.x0 ~horizon:10. ~sense:`Max (`Coord 0)).value
  in
  List.iter
    (fun beta ->
      let eq = Sis.equilibrium p ~beta in
      Alcotest.(check bool)
        (Printf.sprintf "equilibrium beta=%g inside [%g, %g]" beta lo hi)
        true
        (lo -. 1e-3 <= eq && eq <= hi +. 1e-3))
    [ 1.; 2.; 3.; 4. ]

let test_ssa_converges_to_equilibrium () =
  let m = Sis.make p in
  let avg =
    Ssa.time_average m ~n:2000 ~x0:Sis.x0 ~policy:(Policy.constant [| 2. |])
      ~tmax:50. ~warmup:10.
      ~reward:(fun x -> x.(0))
      (Rng.create 5)
  in
  Alcotest.(check bool)
    (Printf.sprintf "avg %.3f near eq %.3f" avg (Sis.equilibrium p ~beta:2.))
    true
    (Float.abs (avg -. Sis.equilibrium p ~beta:2.) < 0.02)

let suites =
  [
    ( "sis",
      [
        Alcotest.test_case "drift closed form" `Quick test_drift_closed_form;
        Alcotest.test_case "equilibrium closed form" `Quick test_equilibrium_closed_form;
        Alcotest.test_case "equilibrium vs ODE" `Quick test_equilibrium_matches_ode;
        Alcotest.test_case "equilibrium monotone" `Quick test_equilibrium_monotone_in_beta;
        Alcotest.test_case "imprecise bounds contain equilibria" `Quick test_imprecise_bounds_contain_equilibria;
        Alcotest.test_case "ssa stationary mean" `Slow test_ssa_converges_to_equilibrium;
      ] );
  ]
