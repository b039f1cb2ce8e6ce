open Umf_numerics
open Umf_meanfield
open Umf_diffinc

(* bilinear controlled system, symbolic: f = th x (1 - x) - x *)
let sys () =
  let open Expr in
  let tr name change rate = { Model.name; change; rate } in
  Model.make ~name:"logistic" ~var_names:[| "X" |] ~theta_names:[| "th" |]
    ~theta:(Optim.Box.make [| 2. |] [| 4. |])
    ~x0:[| 0.3 |]
    [
      tr "birth" [| 1. |] (theta 0 *: var 0 *: (const 1. -: var 0));
      tr "death" [| -1. |] (var 0);
    ]

let test_di_has_exact_jacobian () =
  let s = sys () in
  let di = Di.of_model s in
  (* the costate sweep's Jacobian plan holds the exact derivative
     d/dx (th x (1-x) - x) = th (1 - 2x) - 1 *)
  let jac = Vec.zeros 1 in
  Tape.Plan.run di.Di.jac_plan ~x:[| 0.3 |] ~th:[| 3. |] ~out:jac;
  Alcotest.(check (float 1e-12)) "analytic value" ((3. *. (1. -. 0.6)) -. 1.)
    jac.(0)

let test_certified_hull_contains_constant_solutions () =
  let s = sys () in
  let di = Di.of_model s in
  let x0 = [| 0.3 |] in
  let certified = Certified.hull_bounds s ~x0 ~horizon:2. ~dt:0.01 in
  (* sound: every constant-theta solution inside *)
  List.iter
    (fun th ->
      let traj = Di.integrate_constant di ~theta:[| th |] ~x0 ~horizon:2. ~dt:0.01 in
      List.iter
        (fun t ->
          Alcotest.(check bool) "solution within certified hull" true
            (Hull.contains ~tol:1e-5 certified t (Ode.Traj.at traj t)))
        [ 0.5; 1.; 2. ])
    [ 2.; 3.; 4. ]

let test_certified_hull_not_too_loose () =
  let s = sys () in
  let x0 = [| 0.3 |] in
  let certified = Certified.hull_bounds s ~x0 ~horizon:2. ~dt:0.01 in
  let w = (Hull.final_width certified).(0) in
  Alcotest.(check bool)
    (Printf.sprintf "width %.3f below 0.6" w)
    true (w < 0.6)

(* the certified hull is the plain hull with the sanitizer on, behind
   the lint gate: bitwise the same bounds *)
let test_certified_hull_is_checked_hull () =
  let s = sys () in
  let x0 = [| 0.3 |] in
  let clip = Optim.Box.make [| 0. |] [| 1. |] in
  let certified = Certified.hull_bounds ~clip s ~x0 ~horizon:2. ~dt:0.01 in
  let plain =
    Hull.bounds ~check:true ~clip (Di.of_model s) ~x0 ~horizon:2. ~dt:0.01
  in
  Alcotest.(check bool) "same times" true (certified.Hull.times = plain.Hull.times);
  Alcotest.(check bool) "same lower" true (certified.Hull.lower = plain.Hull.lower);
  Alcotest.(check bool) "same upper" true (certified.Hull.upper = plain.Hull.upper)

(* ẋ = x² from 1 blows up at t = 1; the certified path stops there *)
let test_certified_hull_sanitizer () =
  let open Expr in
  let blowup =
    Model.make ~name:"blowup" ~var_names:[| "X" |] ~theta_names:[| "th" |]
      ~theta:(Optim.Box.make [| 0. |] [| 1. |])
      ~x0:[| 1. |]
      [ { Model.name = "grow"; change = [| 1. |]; rate = var 0 *: var 0 } ]
  in
  match
    Certified.hull_bounds ~lint:false blowup ~x0:[| 1. |] ~horizon:2. ~dt:0.01
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
      let prefix = "Hull.bounds: non-finite" in
      Alcotest.(check string) "message" prefix
        (String.sub msg 0 (String.length prefix))

(* [~lint:false] skips the gate: a certifiably negative rate runs *)
let test_certified_hull_ungated () =
  let bad =
    Model.make ~name:"bad" ~var_names:[| "X" |] ~theta_names:[| "t" |]
      ~theta:(Optim.Box.make [| 0. |] [| 1. |])
      ~x0:[| 0.5 |]
      [ { Model.name = "sink"; change = [| 1. |]; rate = Expr.const (-2.) } ]
  in
  let h = Certified.hull_bounds ~lint:false bad ~x0:[| 0.5 |] ~horizon:0.5 ~dt:0.1 in
  Alcotest.(check (float 1e-12)) "x(T) = 0.5 - 2T" (-0.5) (Hull.upper_at h 0.5).(0)

let test_recommendation () =
  let s = sys () in
  Alcotest.(check bool) "affine: vertices" true
    (Certified.recommended_hamiltonian_opt s = `Vertices);
  let open Expr in
  let quad =
    Model.make ~name:"quad" ~var_names:[| "X" |] ~theta_names:[| "th" |]
      ~theta:(Optim.Box.make [| 0. |] [| 1. |])
      ~x0:[| 0. |]
      [ { Model.name = "t"; change = [| 1. |]; rate = pow (theta 0) 2 } ]
  in
  Alcotest.(check bool) "non-affine: box" true
    (Certified.recommended_hamiltonian_opt quad = `Box 5)

let test_auto_select_vertices () =
  (* the lint-gated solver must pick vertex enumeration for the
     affine-in-theta SIR drift, record it in the result, and compute
     exactly the same bound as the plain solver with explicit opt *)
  let s = Umf_models.Sir.make Umf_models.Sir.default_params in
  let x0 = Umf_models.Sir.x0 in
  let r =
    Certified.pontryagin ~steps:100 s ~x0 ~horizon:2. ~sense:`Max (`Coord 1)
  in
  Alcotest.(check bool) "sir: auto-selected vertices" true
    (r.Pontryagin.opt = `Vertices);
  let plain =
    Pontryagin.solve ~steps:100 ~opt:`Vertices (Di.of_model s) ~x0 ~horizon:2.
      ~sense:`Max (`Coord 1)
  in
  Alcotest.(check (float 1e-12)) "sir: identical bound"
    plain.Pontryagin.value r.Pontryagin.value;
  (* same on the GPS Poisson network (affine in theta despite Div/Ite) *)
  let g = Umf_models.Gps.make_poisson Umf_models.Gps.default_params in
  let gx0 = Umf_models.Gps.x0_poisson in
  let gr =
    Certified.pontryagin ~steps:60 g ~x0:gx0 ~horizon:1. ~sense:`Max (`Coord 0)
  in
  Alcotest.(check bool) "gps: auto-selected vertices" true
    (gr.Pontryagin.opt = `Vertices);
  let gplain =
    Pontryagin.solve ~steps:60 ~opt:`Vertices (Di.of_model g) ~x0:gx0
      ~horizon:1. ~sense:`Max (`Coord 0)
  in
  Alcotest.(check (float 1e-12)) "gps: identical bound"
    gplain.Pontryagin.value gr.Pontryagin.value

let test_auto_select_box_when_not_affine () =
  let open Expr in
  let quad =
    Model.make ~name:"quad" ~var_names:[| "X" |] ~theta_names:[| "th" |]
      ~theta:(Optim.Box.make [| 0. |] [| 1. |])
      ~x0:[| 0. |]
      [ { Model.name = "t"; change = [| 1. |]; rate = pow (theta 0) 2 } ]
  in
  let r =
    Certified.pontryagin ~steps:40 quad ~x0:[| 0. |] ~horizon:0.5 ~sense:`Max
      (`Coord 0)
  in
  Alcotest.(check bool) "non-affine falls back to box search" true
    (match r.Pontryagin.opt with `Box _ -> true | `Vertices -> false)

let suites =
  [
    ( "certified",
      [
        Alcotest.test_case "auto-select vertices (sir, gps)" `Quick
          test_auto_select_vertices;
        Alcotest.test_case "auto-select box (non-affine)" `Quick
          test_auto_select_box_when_not_affine;
        Alcotest.test_case "exact jacobian wiring" `Quick test_di_has_exact_jacobian;
        Alcotest.test_case "certified hull contains constant-theta solutions" `Quick
          test_certified_hull_contains_constant_solutions;
        Alcotest.test_case "certified hull reasonably tight" `Quick test_certified_hull_not_too_loose;
        Alcotest.test_case "certified hull is the checked hull" `Quick
          test_certified_hull_is_checked_hull;
        Alcotest.test_case "certified hull sanitizer" `Quick test_certified_hull_sanitizer;
        Alcotest.test_case "certified hull ungated" `Quick test_certified_hull_ungated;
        Alcotest.test_case "hamiltonian opt recommendation" `Quick test_recommendation;
      ] );
  ]
