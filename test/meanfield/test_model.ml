open Umf_numerics
module Diff = Umf_reference.Diff
open Umf_meanfield

(* symbolic SIR (reduced 2-var): must agree with a closed-form drift *)
let sir_model () =
  let open Expr in
  let s = var 0 and i = var 1 in
  let tr name change rate = { Model.name; change; rate } in
  Model.make ~name:"sir" ~var_names:[| "S"; "I" |] ~theta_names:[| "th" |]
    ~theta:(Optim.Box.make [| 1. |] [| 10. |])
    ~x0:[| 0.7; 0.3 |]
    [
      tr "infection" [| -1.; 1. |] ((const 0.1 *: s) +: (theta 0 *: s *: i));
      tr "recovery" [| 0.; -1. |] (const 5. *: i);
      tr "immunity" [| 1.; 0. |]
        (const 1. *: max_ (const 0.) (const 1. -: s -: i));
    ]

let closed_drift x th =
  let s = x.(0) and i = x.(1) in
  [|
    1. -. (1.1 *. s) -. i -. (th *. s *. i);
    (0.1 *. s) +. (th *. s *. i) -. (5. *. i);
  |]

let test_population_matches () =
  let sys = sir_model () in
  let m = Model.population sys in
  List.iter
    (fun (s, i, th) ->
      let f = Population.drift m [| s; i |] [| th |] in
      Alcotest.(check bool)
        (Printf.sprintf "drift at (%g,%g)" s i)
        true
        (Vec.approx_equal ~tol:1e-12 (closed_drift [| s; i |] th) f))
    [ (0.7, 0.3, 1.); (0.5, 0.2, 5.); (0.3, 0.1, 10.) ]

let test_drift_exprs_eval () =
  let sys = sir_model () in
  let exprs = Model.drift_exprs sys in
  Alcotest.(check int) "two coords" 2 (Array.length exprs);
  let x = [| 0.6; 0.25 |] and th = [| 3. |] in
  let expected = closed_drift x 3. in
  Array.iteri
    (fun i e ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "f%d" i)
        expected.(i)
        (Expr.eval e ~x ~th))
    exprs

let test_jacobian_exact () =
  let sys = sir_model () in
  let x = [| 0.6; 0.25 |] and th = [| 3. |] in
  let jac = Model.jacobian sys x th in
  (* within the simplex the max(0, R) branch is active and smooth *)
  let fd = Diff.jacobian (fun y -> closed_drift y 3.) x in
  Alcotest.(check bool) "symbolic = FD of closed form" true
    (Mat.approx_equal ~tol:1e-5 jac fd)

let test_theta_jacobian () =
  let sys = sir_model () in
  let x = [| 0.6; 0.25 |] and th = [| 3. |] in
  let tj = Model.theta_jacobian sys x th in
  Alcotest.(check (float 1e-12)) "df0/dth" (-.(0.6 *. 0.25)) (Mat.get tj 0 0);
  Alcotest.(check (float 1e-12)) "df1/dth" (0.6 *. 0.25) (Mat.get tj 1 0)

let test_drift_interval_sound () =
  let sys = sir_model () in
  let m = Model.population sys in
  let xb = [| Interval.make 0.4 0.8; Interval.make 0.1 0.3 |] in
  let tb = [| Interval.make 1. 10. |] in
  let enc = Model.drift_interval sys ~x:xb ~th:tb in
  (* pointwise drift of the same model (with its max(0, R) guard) must
     land inside the enclosure at every box point, including points
     outside the simplex like (0.8, 0.3) *)
  List.iter
    (fun (s, i, th) ->
      let f = Population.drift m [| s; i |] [| th |] in
      Array.iteri
        (fun k fk ->
          Alcotest.(check bool)
            (Printf.sprintf "drift f%d at (%g,%g,%g) inside" k s i th)
            true
            (Interval.mem fk enc.(k)))
        f)
    [ (0.4, 0.1, 1.); (0.8, 0.3, 10.); (0.6, 0.2, 5.); (0.4, 0.3, 10.) ]

let test_structure_detection () =
  let sys = sir_model () in
  Alcotest.(check bool) "sir affine in theta" true (Model.affine_in_theta sys);
  (* multilinear fails because of max(0, 1 - S - I)? max disqualifies *)
  Alcotest.(check bool) "sir not multilinear (max node)" false
    (Model.multilinear sys);
  let open Expr in
  let bl =
    Model.make ~name:"bl" ~var_names:[| "X" |] ~theta_names:[| "th" |]
      ~theta:(Optim.Box.make [| 0. |] [| 1. |])
      ~x0:[| 0.5 |]
      [ { Model.name = "t"; change = [| 1. |]; rate = theta 0 *: var 0 } ]
  in
  Alcotest.(check bool) "bilinear is multilinear" true (Model.multilinear bl)

let test_validation () =
  let open Expr in
  Alcotest.check_raises "var out of range"
    (Invalid_argument "Model.make: t references x3 (dim 1)") (fun () ->
      ignore
        (Model.make ~name:"bad" ~var_names:[| "X" |] ~theta_names:[||]
           ~theta:(Optim.Box.make [||] [||])
           ~x0:[| 0. |]
           [ { Model.name = "t"; change = [| 1. |]; rate = var 3 } ]));
  Alcotest.check_raises "x0 dimension"
    (Invalid_argument "Model.make: x0 has dimension 2, expected 1") (fun () ->
      ignore
        (Model.make ~name:"bad" ~var_names:[| "X" |] ~theta_names:[||]
           ~theta:(Optim.Box.make [||] [||])
           ~x0:[| 0.; 0. |]
           [ { Model.name = "t"; change = [| 1. |]; rate = const 1. } ]))

let suites =
  [
    ( "model",
      [
        Alcotest.test_case "population matches closed form" `Quick test_population_matches;
        Alcotest.test_case "drift expressions" `Quick test_drift_exprs_eval;
        Alcotest.test_case "exact jacobian" `Quick test_jacobian_exact;
        Alcotest.test_case "theta jacobian" `Quick test_theta_jacobian;
        Alcotest.test_case "interval drift sound" `Quick test_drift_interval_sound;
        Alcotest.test_case "structure detection" `Quick test_structure_detection;
        Alcotest.test_case "validation" `Quick test_validation;
      ] );
  ]
