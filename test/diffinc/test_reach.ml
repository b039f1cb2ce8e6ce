open Umf_numerics
open Umf_diffinc

let integrator2_di () =
  Fixture.di ~lo:[| -1.; -1. |] ~hi:[| 1.; 1. |] Expr.[| theta 0; theta 1 |]

let test_samples_reachable () =
  (* for the 2-D integrator the reach set at T is the box [-T, T]^2 *)
  let di = integrator2_di () in
  let rng = Rng.create 1 in
  let states = Reach.sample_states di ~x0:[| 0.; 0. |] ~horizon:1.5 ~n_controls:50 rng in
  Alcotest.(check int) "count" 50 (List.length states);
  List.iter
    (fun x ->
      Alcotest.(check bool) "inside reach box" true
        (Float.abs x.(0) <= 1.5 +. 1e-9 && Float.abs x.(1) <= 1.5 +. 1e-9))
    states

let test_vertex_bias_hits_corners () =
  (* with full vertex bias and zero switches the extreme corners appear *)
  let di = integrator2_di () in
  let rng = Rng.create 2 in
  let states =
    Reach.sample_states ~switches:0 ~vertex_bias:1. di ~x0:[| 0.; 0. |]
      ~horizon:1. ~n_controls:64 rng
  in
  let corner_hit =
    List.exists (fun x -> Float.abs (Float.abs x.(0) -. 1.) < 1e-6) states
  in
  Alcotest.(check bool) "some corner reached" true corner_hit

let test_hull_2d () =
  let di = integrator2_di () in
  let rng = Rng.create 3 in
  let hull = Reach.hull_2d di ~x0:[| 0.; 0. |] ~horizon:1. ~n_controls:200 rng in
  Alcotest.(check bool) "non-trivial hull" true (List.length hull >= 3);
  (* the sampled hull under-approximates the true reach square [-1,1]^2 *)
  Alcotest.(check bool) "hull inside true reach set" true
    (List.for_all (fun (x, y) -> Float.abs x <= 1. +. 1e-9 && Float.abs y <= 1. +. 1e-9) hull);
  Alcotest.(check bool) "hull has positive area" true
    (Geometry.polygon_area hull > 1.)

let test_dim_validation () =
  let di = Fixture.di ~lo:[| 0. |] ~hi:[| 1. |] [| Expr.theta 0 |] in
  Alcotest.check_raises "not 2d" (Invalid_argument "Reach.hull_2d: system is not 2-D")
    (fun () ->
      ignore (Reach.hull_2d di ~x0:[| 0. |] ~horizon:1. ~n_controls:5 (Rng.create 1)))

let suites =
  [
    ( "reach",
      [
        Alcotest.test_case "samples reachable" `Quick test_samples_reachable;
        Alcotest.test_case "vertex bias reaches corners" `Quick test_vertex_bias_hits_corners;
        Alcotest.test_case "2-D hull" `Quick test_hull_2d;
        Alcotest.test_case "dimension validation" `Quick test_dim_validation;
      ] );
  ]
