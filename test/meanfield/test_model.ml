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

let test_rates_plan_matches () =
  (* the rates plan, folded along the change vectors, is the closed-form
     drift: the size-N chain and the mean-field limit share one set of
     rates *)
  let sys = sir_model () in
  List.iter
    (fun (s, i, th) ->
      let x = [| s; i |] in
      let props = Model.propensities sys ~n:1 x [| th |] in
      let f = Vec.zeros 2 in
      List.iteri
        (fun k (tr : Model.transition) ->
          Vec.axpy_in_place props.(k) tr.change f)
        (Model.transitions sys);
      Alcotest.(check bool)
        (Printf.sprintf "sum of rates x changes at (%g,%g)" s i)
        true
        (Vec.approx_equal ~tol:1e-12 (closed_drift x th) f))
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
  let jac = Umf_reference.Jacobian.of_model sys x th in
  (* within the simplex the max(0, R) branch is active and smooth *)
  let fd = Diff.jacobian (fun y -> closed_drift y 3.) x in
  Alcotest.(check bool) "symbolic = FD of closed form" true
    (Mat.approx_equal ~tol:1e-5 jac fd)

let test_drift_interval_sound () =
  let sys = sir_model () in
  let xb = [| Interval.make 0.4 0.8; Interval.make 0.1 0.3 |] in
  let tb = [| Interval.make 1. 10. |] in
  let enc = Model.drift_interval sys ~x:xb ~th:tb in
  (* pointwise drift of the same model (with its max(0, R) guard) must
     land inside the enclosure at every box point, including points
     outside the simplex like (0.8, 0.3) *)
  List.iter
    (fun (s, i, th) ->
      let f = Model.drift sys [| s; i |] [| th |] in
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

(* a birth-death population: birth at rate theta*(1-x), death at rate x *)
let bd_model () =
  let open Expr in
  let tr name change rate = { Model.name; change; rate } in
  Model.make ~name:"bd" ~var_names:[| "X" |] ~theta_names:[| "theta" |]
    ~theta:(Optim.Box.make [| 0.5 |] [| 2. |])
    ~x0:[| 0.5 |]
    [
      tr "birth" [| 1. |] (theta 0 *: max_ (const 0.) (const 1. -: var 0));
      tr "death" [| -1. |] (max_ (const 0.) (var 0));
    ]

let test_population_validation () =
  let make ~var_names ~theta_names ~theta transitions =
    ignore
      (Model.make ~name:"x" ~var_names ~theta_names ~theta
         ~x0:(Vec.zeros (Array.length var_names))
         transitions)
  in
  Alcotest.check_raises "no vars" (Invalid_argument "Model.make: no variables")
    (fun () ->
      make ~var_names:[||] ~theta_names:[||] ~theta:(Optim.Box.make [||] [||]) []);
  Alcotest.check_raises "theta mismatch"
    (Invalid_argument "Model.make: theta box/name dimension mismatch")
    (fun () ->
      make ~var_names:[| "a" |] ~theta_names:[||]
        ~theta:(Optim.Box.make [| 0. |] [| 1. |])
        []);
  Alcotest.check_raises "bad change"
    (Invalid_argument "Model.make: transition t has change of wrong dimension")
    (fun () ->
      make ~var_names:[| "a" |] ~theta_names:[||]
        ~theta:(Optim.Box.make [||] [||])
        [ { Model.name = "t"; change = [| 1.; 1. |]; rate = Expr.const 1. } ])

let test_bd_drift () =
  let m = bd_model () in
  (* f(x, th) = th (1-x) - x *)
  let f = Model.drift m [| 0.25 |] [| 1. |] in
  Alcotest.(check (float 1e-12)) "drift" 0.5 f.(0);
  let f2 = Model.drift m [| 0.25 |] [| 2. |] in
  Alcotest.(check (float 1e-12)) "drift theta=2" 1.25 f2.(0)

let test_bd_equilibrium () =
  let m = bd_model () in
  (* equilibrium of th(1-x) = x at x = th/(1+th) *)
  let eq =
    Umf_reference.Ode_ref.fixed_point
      (fun _t x -> Model.drift m x [| 2. |])
      [| 0.1 |]
  in
  Alcotest.(check (float 1e-6)) "equilibrium" (2. /. 3.) eq.(0)

let test_propensities () =
  let m = bd_model () in
  let props = Model.propensities m ~n:100 [| 0.25 |] [| 1. |] in
  Alcotest.(check (float 1e-9)) "birth" 75. props.(0);
  Alcotest.(check (float 1e-9)) "death" 25. props.(1)

let test_propensities_invalid () =
  let bad =
    Model.make ~name:"bad" ~var_names:[| "X" |] ~theta_names:[||]
      ~theta:(Optim.Box.make [||] [||])
      ~x0:[| 0.5 |]
      [ { Model.name = "neg"; change = [| 1. |]; rate = Expr.const (-1.) } ]
  in
  Alcotest.check_raises "negative rate"
    (Invalid_argument "Model.propensities: transition neg has invalid rate")
    (fun () -> ignore (Model.propensities bad ~n:10 [| 0.5 |] [||]))

let prop_drift_linear_in_rates =
  (* drift at x is a linear combination of changes with non-negative
     weights: for the bd model |f| <= birth_rate + death_rate *)
  let gen = QCheck.Gen.(pair (float_range 0. 1.) (float_range 0.5 2.)) in
  QCheck.Test.make ~name:"drift bounded by total rate" ~count:200
    (QCheck.make gen) (fun (x, th) ->
      let m = bd_model () in
      let f = Model.drift m [| x |] [| th |] in
      let total = (th *. (1. -. x)) +. x in
      Float.abs f.(0) <= total +. 1e-9)

(* For every registry model the rates plan, folded along the change
   vectors, is the drift plan's f = Σ β_ℓ ℓ up to rounding (the drift
   tape is simplified symbolically, so sums may reassociate): the size-N
   chain, the SSA and the mean-field limit read one set of rates.  The
   N-scaled propensities are N times the plan's rates, bit for bit. *)
let test_rates_fold_to_drift (name, m) () =
  let rng = Rng.create 26 in
  let dim = Model.dim m in
  for k = 1 to 40 do
    let x = Optim.Box.sample_uniform rng (Model.clip m) in
    let th = Optim.Box.sample_uniform rng (Model.theta m) in
    let betas = Model.propensities m ~n:1 x th in
    let fold = Vec.zeros dim in
    List.iteri
      (fun j (tr : Model.transition) ->
        Vec.axpy_in_place betas.(j) tr.change fold)
      (Model.transitions m);
    let f = Model.drift m x th in
    Array.iteri
      (fun i fi ->
        if Float.abs (fold.(i) -. fi) > 1e-9 *. Float.max 1. (Float.abs fi) then
          Alcotest.failf "%s sample %d: folded rates give f[%d] = %.17g, the \
                          drift plan %.17g"
            name k i fold.(i) fi)
      f;
    let scaled = Model.propensities m ~n:37 x th in
    Array.iteri
      (fun j b ->
        if Int64.bits_of_float scaled.(j) <> Int64.bits_of_float (37. *. b) then
          Alcotest.failf "%s sample %d: propensity %d is %.17g, not 37 x %.17g"
            name k j scaled.(j) b)
      betas
  done

let suites =
  [
    ( "model",
      [
        Alcotest.test_case "rates plan matches closed form" `Quick
          test_rates_plan_matches;
        Alcotest.test_case "drift expressions" `Quick test_drift_exprs_eval;
        Alcotest.test_case "exact jacobian" `Quick test_jacobian_exact;
        Alcotest.test_case "interval drift sound" `Quick test_drift_interval_sound;
        Alcotest.test_case "structure detection" `Quick test_structure_detection;
        Alcotest.test_case "validation" `Quick test_validation;
        Alcotest.test_case "population validation" `Quick
          test_population_validation;
        Alcotest.test_case "birth-death drift" `Quick test_bd_drift;
        Alcotest.test_case "birth-death equilibrium" `Quick test_bd_equilibrium;
        Alcotest.test_case "propensities" `Quick test_propensities;
        Alcotest.test_case "invalid rate detection" `Quick
          test_propensities_invalid;
        QCheck_alcotest.to_alcotest prop_drift_linear_in_rates;
      ] );
    ( "rates vs drift",
      List.map
        (fun ((name, _) as c) ->
          Alcotest.test_case name `Quick (test_rates_fold_to_drift c))
        (Umf_models.Registry.all ()) );
  ]
