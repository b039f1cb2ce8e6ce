open Umf_numerics
module Diff = Umf_reference.Diff

let check_close tol msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let test_derivative () =
  check_close 1e-7 "d/dx sin at 0" 1. (Diff.derivative Float.sin 0.);
  check_close 1e-6 "d/dx x^2 at 3" 6. (Diff.derivative (fun x -> x *. x) 3.)

let test_gradient () =
  let f v = (v.(0) *. v.(0)) +. (3. *. v.(1)) in
  let g = Diff.gradient f [| 2.; 5. |] in
  check_close 1e-5 "df/dx" 4. g.(0);
  check_close 1e-5 "df/dy" 3. g.(1)

let test_jacobian () =
  let f v = [| v.(0) *. v.(1); v.(0) +. v.(1); Float.sin v.(0) |] in
  let j = Diff.jacobian f [| 1.; 2. |] in
  Alcotest.(check int) "rows" 3 (Mat.rows j);
  Alcotest.(check int) "cols" 2 (Mat.cols j);
  check_close 1e-5 "j00" 2. (Mat.get j 0 0);
  check_close 1e-5 "j01" 1. (Mat.get j 0 1);
  check_close 1e-5 "j10" 1. (Mat.get j 1 0);
  check_close 1e-5 "j20" (Float.cos 1.) (Mat.get j 2 0)

let test_jacobian_tv () =
  let f v = [| v.(0) *. v.(1); v.(0) +. v.(1) |] in
  let x = [| 1.; 2. |] and p = [| 0.5; -1. |] in
  let jtv = Diff.jacobian_tv f x p in
  let j = Diff.jacobian f x in
  let expected = Mat.tmulv j p in
  Alcotest.(check bool) "matches explicit Jt p" true
    (Vec.approx_equal ~tol:1e-5 expected jtv)

let prop_gradient_linear_exact =
  let gen = QCheck.Gen.(pair (float_range (-5.) 5.) (float_range (-5.) 5.)) in
  QCheck.Test.make ~name:"gradient exact for linear maps" ~count:100
    (QCheck.make gen) (fun (a, b) ->
      let f v = (a *. v.(0)) +. (b *. v.(1)) in
      let g = Diff.gradient f [| 0.3; -0.7 |] in
      Float.abs (g.(0) -. a) < 1e-6 && Float.abs (g.(1) -. b) < 1e-6)

let suites =
  [
    ( "diff",
      [
        Alcotest.test_case "scalar derivative" `Quick test_derivative;
        Alcotest.test_case "gradient" `Quick test_gradient;
        Alcotest.test_case "jacobian" `Quick test_jacobian;
        Alcotest.test_case "jacobian transpose-vector" `Quick test_jacobian_tv;
        QCheck_alcotest.to_alcotest prop_gradient_linear_exact;
      ] );
  ]
