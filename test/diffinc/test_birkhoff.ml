open Umf_numerics
open Umf_diffinc

(* decoupled contraction towards (θ, θ): equilibria span the segment
   from (1,1) to (2,2); the Birkhoff centre must contain that segment *)
let segment_di () =
  Fixture.di ~lo:[| 1. |] ~hi:[| 2. |]
    Expr.[| theta 0 -: var 0; theta 0 -: var 1 |]

(* independent per-coordinate parameters: equilibria fill [1,2]^2 *)
let square_di () =
  Fixture.di ~lo:[| 1.; 1. |] ~hi:[| 2.; 2. |]
    Expr.[| theta 0 -: var 0; theta 1 -: var 1 |]

let test_contains_extreme_equilibria () =
  let b = Birkhoff.compute (segment_di ()) ~x_start:[| 0.; 0. |] in
  Alcotest.(check bool) "converged" false b.Birkhoff.escaped;
  Alcotest.(check bool) "contains (1,1)" true (Birkhoff.contains b (1.0001, 1.0001));
  Alcotest.(check bool) "contains (2,2)" true (Birkhoff.contains b (1.9999, 1.9999));
  Alcotest.(check bool) "contains mid equilibrium" true (Birkhoff.contains b (1.5, 1.5))

let test_excludes_far_points () =
  let b = Birkhoff.compute (segment_di ()) ~x_start:[| 0.; 0. |] in
  Alcotest.(check bool) "excludes origin" false (Birkhoff.contains b (0., 0.));
  Alcotest.(check bool) "excludes (3,3)" false (Birkhoff.contains b (3., 3.))

let test_square_system_area () =
  let b = Birkhoff.compute (square_di ()) ~x_start:[| 0.; 0. |] in
  (* true Birkhoff centre is the unit square [1,2]^2 of area 1 *)
  Alcotest.(check bool) "area close to 1" true
    (Birkhoff.area b > 0.9 && Birkhoff.area b < 1.15);
  List.iter
    (fun p -> Alcotest.(check bool) "corner included" true (Birkhoff.contains b p))
    [ (1.01, 1.01); (1.99, 1.01); (1.01, 1.99); (1.99, 1.99) ]

let test_no_outward_drift_on_boundary () =
  let di = square_di () in
  let b = Birkhoff.compute di ~x_start:[| 0.; 0. |] in
  (* the defining property: at every boundary point, no parameter choice
     makes the drift point outward (up to tolerance) *)
  let vertices = Optim.Box.vertices di.Di.theta in
  List.iter
    (fun ((mx, my), (nx, ny)) ->
      let worst =
        List.fold_left
          (fun acc th ->
            let f = di.Di.drift [| mx; my |] th in
            Float.max acc ((f.(0) *. nx) +. (f.(1) *. ny)))
          Float.neg_infinity vertices
      in
      Alcotest.(check bool)
        (Printf.sprintf "no escape at (%.2f, %.2f)" mx my)
        true (worst < 0.05))
    (Geometry.edge_midpoints b.Birkhoff.polygon)

let test_polygon_simplified () =
  let b = Birkhoff.compute (square_di ()) ~x_start:[| 0.; 0. |] in
  Alcotest.(check bool) "vertex budget respected" true
    (List.length b.Birkhoff.polygon <= 256)

let test_dim_validation () =
  let di = Fixture.di ~lo:[| 0. |] ~hi:[| 1. |] [| Expr.theta 0 |] in
  Alcotest.check_raises "1-D rejected"
    (Invalid_argument "Birkhoff.compute: system is not 2-D") (fun () ->
      ignore (Birkhoff.compute di ~x_start:[| 0. |]))

let suites =
  [
    ( "birkhoff",
      [
        Alcotest.test_case "contains equilibrium segment" `Quick test_contains_extreme_equilibria;
        Alcotest.test_case "excludes far points" `Quick test_excludes_far_points;
        Alcotest.test_case "square system area" `Quick test_square_system_area;
        Alcotest.test_case "no outward drift on boundary" `Quick test_no_outward_drift_on_boundary;
        Alcotest.test_case "polygon simplified" `Quick test_polygon_simplified;
        Alcotest.test_case "dimension validation" `Quick test_dim_validation;
      ] );
  ]
