open Umf_numerics
module Ode_ref = Umf_reference.Ode_ref

let check_close tol msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* dy/dt = -y, y(0) = 1: y(t) = exp(-t) *)
let decay _t y = Vec.scale (-1.) y

(* harmonic oscillator: x'' = -x as a 2-d system *)
let oscillator _t y = [| y.(1); -.y.(0) |]

let test_euler_order () =
  (* halving dt should roughly halve the global Euler error *)
  let err dt =
    let y = Ode_ref.integrate_to ~method_:`Euler decay ~t0:0. ~y0:[| 1. |] ~t1:1. ~dt in
    Float.abs (y.(0) -. Float.exp (-1.))
  in
  let e1 = err 0.01 and e2 = err 0.005 in
  Alcotest.(check bool) "first order" true (e1 /. e2 > 1.6 && e1 /. e2 < 2.4)

let test_rk4_accuracy () =
  let y = Ode_ref.integrate_to decay ~t0:0. ~y0:[| 1. |] ~t1:1. ~dt:0.01 in
  check_close 1e-9 "exp(-1)" (Float.exp (-1.)) y.(0)

let test_rk4_order () =
  let err dt =
    let y = Ode_ref.integrate_to decay ~t0:0. ~y0:[| 1. |] ~t1:1. ~dt in
    Float.abs (y.(0) -. Float.exp (-1.))
  in
  let e1 = err 0.1 and e2 = err 0.05 in
  Alcotest.(check bool) "fourth order" true (e1 /. e2 > 12. && e1 /. e2 < 20.)

let test_oscillator_energy () =
  let y = Ode_ref.integrate_to oscillator ~t0:0. ~y0:[| 1.; 0. |] ~t1:(2. *. Float.pi) ~dt:0.001 in
  check_close 1e-6 "back to start x" 1. y.(0);
  check_close 1e-6 "back to start v" 0. y.(1)

let test_integrate_traj () =
  let traj = Ode.integrate decay ~t0:0. ~y0:[| 1. |] ~t1:2. ~dt:0.1 in
  check_close 1e-12 "starts at t0" 0. (Ode.Traj.t0 traj);
  check_close 1e-9 "ends at t1" 2. (Ode.Traj.t1 traj);
  check_close 1e-6 "final value" (Float.exp (-2.)) (Ode.Traj.last traj).(0);
  (* interpolation between stored nodes *)
  let mid = Ode.Traj.at traj 1.0 in
  check_close 1e-4 "interpolated" (Float.exp (-1.)) mid.(0)

let test_traj_clamping () =
  let traj = Ode.integrate decay ~t0:0. ~y0:[| 1. |] ~t1:1. ~dt:0.1 in
  let before = Ode.Traj.at traj (-5.) and after = Ode.Traj.at traj 10. in
  check_close 1e-12 "clamp low" 1. before.(0);
  check_close 1e-12 "clamp high" (Ode.Traj.last traj).(0) after.(0)

let test_traj_component_sample () =
  let traj = Ode.integrate oscillator ~t0:0. ~y0:[| 1.; 0. |] ~t1:1. ~dt:0.1 in
  let xs = Ode.Traj.component traj 0 in
  Alcotest.(check int) "component length" (Ode.Traj.length traj) (Array.length xs);
  let samples = Ode.Traj.sample traj [| 0.; 0.5; 1. |] in
  Alcotest.(check int) "sample count" 3 (Array.length samples)

let test_traj_map () =
  let traj = Ode.integrate decay ~t0:0. ~y0:[| 1. |] ~t1:1. ~dt:0.1 in
  let doubled = Ode.Traj.map (Vec.scale 2.) traj in
  check_close 1e-12 "map scales states" (2. *. (Ode.Traj.last traj).(0))
    (Ode.Traj.last doubled).(0);
  check_close 1e-12 "times preserved" (Ode.Traj.t1 traj) (Ode.Traj.t1 doubled)

let test_traj_validation () =
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Traj.of_arrays: times not strictly increasing") (fun () ->
      ignore (Ode.Traj.of_arrays [| 0.; 0. |] [| [| 1. |]; [| 2. |] |]))

let test_adaptive_accuracy () =
  let traj = Ode.integrate_adaptive ~rtol:1e-9 ~atol:1e-12 decay ~t0:0. ~y0:[| 1. |] ~t1:3. in
  check_close 1e-8 "adaptive exp(-3)" (Float.exp (-3.)) (Ode.Traj.last traj).(0)

let test_adaptive_stiffish () =
  (* fast transient then slow decay; adaptive must take small steps early *)
  let f _t y = [| -50. *. (y.(0) -. Float.cos y.(1)); 0.1 |] in
  let traj = Ode.integrate_adaptive ~rtol:1e-6 f ~t0:0. ~y0:[| 0.; 0. |] ~t1:1. in
  Alcotest.(check bool) "completes" true (Ode.Traj.length traj > 10)

let test_adaptive_zero_span () =
  let traj = Ode.integrate_adaptive decay ~t0:1. ~y0:[| 2. |] ~t1:1. in
  Alcotest.(check int) "single point" 1 (Ode.Traj.length traj);
  check_close 1e-12 "initial state" 2. (Ode.Traj.first traj).(0)

let test_invalid_span () =
  Alcotest.check_raises "t1 < t0" (Invalid_argument "Ode: t1 < t0") (fun () ->
      ignore (Ode.integrate decay ~t0:1. ~y0:[| 1. |] ~t1:0. ~dt:0.1))

let test_fixed_point () =
  (* logistic: equilibrium at 1 from x0 = 0.2 *)
  let f _t y = [| y.(0) *. (1. -. y.(0)) |] in
  let eq = Ode_ref.fixed_point ~tol:1e-10 f [| 0.2 |] in
  check_close 1e-6 "logistic equilibrium" 1. eq.(0)

let test_fixed_point_failure () =
  (* pure rotation never settles *)
  Alcotest.check_raises "no equilibrium"
    (Failure "Ode_ref.fixed_point: no equilibrium reached") (fun () ->
      ignore (Ode_ref.fixed_point ~max_time:5. oscillator [| 1.; 0. |]))

let prop_rk4_linear_exact =
  (* RK4 integrates polynomials of degree <= 3 in t essentially exactly *)
  QCheck.Test.make ~name:"rk4 exact on cubic rhs" ~count:50
    (QCheck.make QCheck.Gen.(float_range (-2.) 2.))
    (fun a ->
      let f t _y = [| a *. t *. t |] in
      let y = Ode_ref.integrate_to f ~t0:0. ~y0:[| 0. |] ~t1:1. ~dt:0.25 in
      Float.abs (y.(0) -. (a /. 3.)) < 1e-10)

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_check_flags_nan () =
  (* rhs turns NaN halfway through the horizon *)
  let f t _y = [| (if t > 0.5 then Float.nan else 1.) |] in
  (* without the sanitizer the NaN propagates silently to the result *)
  let y = Ode_ref.integrate_to f ~t0:0. ~y0:[| 0. |] ~t1:1. ~dt:0.1 in
  Alcotest.(check bool) "nan propagates unchecked" true (Float.is_nan y.(0));
  (* with it, the failure points at the offending time and step *)
  (match Ode_ref.integrate_to ~check:true f ~t0:0. ~y0:[| 0. |] ~t1:1. ~dt:0.1 with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message localises the NaN: %s" msg)
        true
        (contains_substring msg "non-finite"
        && contains_substring msg "t = " && contains_substring msg "step"));
  match
    Ode.integrate ~check:true f ~t0:0. ~y0:[| 0. |] ~t1:1. ~dt:0.1
  with
  | _ -> Alcotest.fail "expected Failure (integrate)"
  | exception Failure _ -> ()

let test_check_flags_bad_initial_state () =
  let f _t y = Vec.copy y in
  match
    Ode_ref.integrate_to ~check:true f ~t0:0. ~y0:[| Float.infinity |] ~t1:1.
      ~dt:0.1
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
      Alcotest.(check bool) "flags step 0" true (contains_substring msg "step 0")

let test_check_adaptive () =
  let f t y = [| (if t > 0.3 then Float.nan else y.(0)) |] in
  match Ode.integrate_adaptive ~check:true f ~t0:0. ~y0:[| 1. |] ~t1:1. with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
      Alcotest.(check bool) "adaptive flags non-finite" true
        (contains_substring msg "non-finite")

let test_check_clean_run_unchanged () =
  let f _t y = [| -.y.(0) |] in
  let a = Ode_ref.integrate_to f ~t0:0. ~y0:[| 1. |] ~t1:1. ~dt:0.05 in
  let b = Ode_ref.integrate_to ~check:true f ~t0:0. ~y0:[| 1. |] ~t1:1. ~dt:0.05 in
  Alcotest.(check (float 0.)) "identical results" a.(0) b.(0)

let suites =
  [
    ( "ode",
      [
        Alcotest.test_case "check flags nan" `Quick test_check_flags_nan;
        Alcotest.test_case "check flags bad initial state" `Quick
          test_check_flags_bad_initial_state;
        Alcotest.test_case "check in adaptive" `Quick test_check_adaptive;
        Alcotest.test_case "check leaves clean runs unchanged" `Quick
          test_check_clean_run_unchanged;
        Alcotest.test_case "euler first order" `Quick test_euler_order;
        Alcotest.test_case "rk4 accuracy" `Quick test_rk4_accuracy;
        Alcotest.test_case "rk4 fourth order" `Quick test_rk4_order;
        Alcotest.test_case "oscillator period" `Quick test_oscillator_energy;
        Alcotest.test_case "trajectory recording" `Quick test_integrate_traj;
        Alcotest.test_case "trajectory clamping" `Quick test_traj_clamping;
        Alcotest.test_case "component/sample" `Quick test_traj_component_sample;
        Alcotest.test_case "trajectory map" `Quick test_traj_map;
        Alcotest.test_case "trajectory validation" `Quick test_traj_validation;
        Alcotest.test_case "adaptive accuracy" `Quick test_adaptive_accuracy;
        Alcotest.test_case "adaptive fast transient" `Quick test_adaptive_stiffish;
        Alcotest.test_case "adaptive zero span" `Quick test_adaptive_zero_span;
        Alcotest.test_case "span validation" `Quick test_invalid_span;
        Alcotest.test_case "fixed point" `Quick test_fixed_point;
        Alcotest.test_case "fixed point failure" `Quick test_fixed_point_failure;
        QCheck_alcotest.to_alcotest prop_rk4_linear_exact;
      ] );
  ]
