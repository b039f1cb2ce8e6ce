open Umf_numerics
open Umf_diffinc

(* 2-D integrator: reach set at T is exactly the square [-T, T]^2 *)
let integrator2 () =
  Fixture.di ~lo:[| -1.; -1. |] ~hi:[| 1.; 1. |] Expr.[| theta 0; theta 1 |]

let test_directions () =
  let d4 = Template.directions_2d 4 in
  Alcotest.(check int) "4 dirs" 4 (Array.length d4);
  Alcotest.(check (float 1e-9)) "unit" 1. (Vec.norm2 d4.(1));
  let ax = Template.axis_directions 3 in
  Alcotest.(check int) "6 axis dirs" 6 (Array.length ax);
  Alcotest.check_raises "k >= 3"
    (Invalid_argument "Template.directions_2d: need k >= 3") (fun () ->
      ignore (Template.directions_2d 2))

let test_axis_template_is_rectangle () =
  let di = integrator2 () in
  let t =
    Template.compute ~steps:100 di ~x0:[| 0.; 0. |] ~horizon:1.
      ~directions:(Template.axis_directions 2)
  in
  (* support in +/- e_i is T = 1 *)
  Array.iter
    (fun s -> Alcotest.(check (float 1e-6)) "support 1" 1. s)
    t.Template.support;
  Alcotest.(check (float 1e-4)) "square area 4" 4. (Template.area_2d t)

let test_octagon_refines_rectangle () =
  (* the integrator's true reach set IS the square, so diagonal
     directions have support sqrt(2)*... no: support of square [-1,1]^2
     in direction (1,1)/sqrt2 is sqrt 2 -- the octagon template equals
     the square. Use instead the DISC system: dx = theta with
     |theta|_2-ish... With a box theta the reach set is the square, and
     the 8-direction template must recover exactly the square's area *)
  let di = integrator2 () in
  let t8 =
    Template.compute ~steps:100 di ~x0:[| 0.; 0. |] ~horizon:1.
      ~directions:(Template.directions_2d 8)
  in
  Alcotest.(check (float 1e-3)) "8-template recovers square" 4.
    (Template.area_2d t8)

let test_template_refines_on_sir () =
  (* on the SIR-like reach set (not a rectangle), more directions give a
     strictly smaller polygon that still contains the inner Monte-Carlo
     reach cloud *)
  let di = Fixture.sir_like () in
  let x0 = [| 0.7; 0.3 |] in
  let rect =
    Template.compute ~steps:150 di ~x0 ~horizon:2.
      ~directions:(Template.axis_directions 2)
  in
  let oct =
    Template.compute ~steps:150 di ~x0 ~horizon:2.
      ~directions:(Template.directions_2d 12)
  in
  let a_rect = Template.area_2d rect and a_oct = Template.area_2d oct in
  Alcotest.(check bool)
    (Printf.sprintf "refinement shrinks: %.5f < %.5f" a_oct a_rect)
    true
    (a_oct < a_rect *. 0.95);
  (* soundness: genuinely reachable states satisfy the template *)
  let rng = Rng.create 3 in
  let cloud = Reach.sample_states di ~x0 ~horizon:2. ~n_controls:40 rng in
  List.iter
    (fun x ->
      Alcotest.(check bool) "reachable state inside template" true
        (Template.mem ~tol:1e-4 oct x))
    cloud

let test_mem () =
  let t =
    {
      Template.directions = Template.axis_directions 2;
      support = [| 1.; 1.; 1.; 1. |];
    }
  in
  Alcotest.(check bool) "inside" true (Template.mem t [| 0.5; -0.5 |]);
  Alcotest.(check bool) "outside" false (Template.mem t [| 1.5; 0. |]);
  Alcotest.(check bool) "boundary" true (Template.mem t [| 1.; 1. |])

let test_polygon_validation () =
  let t =
    { Template.directions = [| [| 1.; 0.; 0. |] |]; support = [| 1. |] }
  in
  Alcotest.check_raises "3d rejected"
    (Invalid_argument "Template.polygon_2d: directions are not 2-D") (fun () ->
      ignore (Template.polygon_2d t))

let suites =
  [
    ( "template",
      [
        Alcotest.test_case "direction generators" `Quick test_directions;
        Alcotest.test_case "axis template = rectangle" `Quick test_axis_template_is_rectangle;
        Alcotest.test_case "8 directions on a square" `Quick test_octagon_refines_rectangle;
        Alcotest.test_case "refinement on SIR" `Quick test_template_refines_on_sir;
        Alcotest.test_case "membership" `Quick test_mem;
        Alcotest.test_case "polygon validation" `Quick test_polygon_validation;
      ] );
  ]
