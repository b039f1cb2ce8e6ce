open Umf_numerics

let check_close tol msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let square = [ (0., 0.); (1., 0.); (1., 1.); (0., 1.) ]

let test_cross () =
  Alcotest.(check bool) "left turn positive" true
    (Geometry.cross (0., 0.) (1., 0.) (1., 1.) > 0.);
  Alcotest.(check bool) "right turn negative" true
    (Geometry.cross (0., 0.) (1., 0.) (1., -1.) < 0.);
  check_close 1e-12 "collinear" 0. (Geometry.cross (0., 0.) (1., 1.) (2., 2.))

let test_hull_square () =
  let pts = (0.5, 0.5) :: (0.2, 0.7) :: square in
  let hull = Geometry.convex_hull pts in
  Alcotest.(check int) "4 hull points" 4 (List.length hull);
  List.iter
    (fun p ->
      Alcotest.(check bool) "hull point is a corner" true (List.mem p square))
    hull

let test_hull_ccw () =
  let hull = Geometry.convex_hull square in
  (* shoelace signed area positive iff CCW *)
  let signed =
    List.fold_left
      (fun acc ((x1, y1), (x2, y2)) -> acc +. ((x1 *. y2) -. (x2 *. y1)))
      0. (Geometry.edges hull)
  in
  Alcotest.(check bool) "counter-clockwise" true (signed > 0.)

let test_hull_collinear () =
  let hull = Geometry.convex_hull [ (0., 0.); (1., 0.); (2., 0.); (3., 0.) ] in
  Alcotest.(check int) "collinear collapses to 2" 2 (List.length hull)

let test_hull_degenerate () =
  Alcotest.(check int) "empty" 0 (List.length (Geometry.convex_hull []));
  Alcotest.(check int) "single" 1 (List.length (Geometry.convex_hull [ (1., 1.) ]));
  Alcotest.(check int) "duplicates collapse" 1
    (List.length (Geometry.convex_hull [ (1., 1.); (1., 1.) ]))

let test_area () =
  check_close 1e-12 "unit square" 1. (Geometry.polygon_area square);
  check_close 1e-12 "triangle" 0.5
    (Geometry.polygon_area [ (0., 0.); (1., 0.); (0., 1.) ]);
  check_close 1e-12 "degenerate" 0. (Geometry.polygon_area [ (0., 0.); (1., 0.) ])

let test_point_in_polygon () =
  Alcotest.(check bool) "inside" true
    (Geometry.point_in_convex_polygon (0.5, 0.5) square);
  Alcotest.(check bool) "outside" false
    (Geometry.point_in_convex_polygon (1.5, 0.5) square);
  Alcotest.(check bool) "boundary" true
    (Geometry.point_in_convex_polygon (1., 0.5) square);
  Alcotest.(check bool) "corner" true
    (Geometry.point_in_convex_polygon (0., 0.) square)

let test_outward_normal () =
  (* bottom edge of CCW square: outward normal points down *)
  let nx, ny = Geometry.outward_normal (0., 0.) (1., 0.) in
  check_close 1e-12 "nx" 0. nx;
  check_close 1e-12 "ny" (-1.) ny

let test_edge_midpoints () =
  let mids = Geometry.edge_midpoints square in
  Alcotest.(check int) "4 edges" 4 (List.length mids);
  List.iter
    (fun ((mx, my), (nx, ny)) ->
      (* stepping outward along the normal leaves the square *)
      let out = (mx +. (0.1 *. nx), my +. (0.1 *. ny)) in
      Alcotest.(check bool) "normal points outward" false
        (Geometry.point_in_convex_polygon ~tol:1e-9 out square))
    mids

let test_resample () =
  let pts = Geometry.resample_boundary square 8 in
  Alcotest.(check int) "8 points" 8 (List.length pts);
  List.iter
    (fun p ->
      Alcotest.(check bool) "on boundary" true
        (Geometry.point_in_convex_polygon ~tol:1e-9 p square))
    pts

let test_hausdorff () =
  check_close 1e-12 "identical sets" 0. (Geometry.hausdorff square square);
  let shifted = List.map (fun (x, y) -> (x +. 1., y)) square in
  check_close 1e-12 "shifted square" 1. (Geometry.hausdorff square shifted)

let test_bounding_box () =
  let (xmin, ymin), (xmax, ymax) =
    Geometry.bounding_box [ (1., 2.); (-1., 5.); (3., 0.) ]
  in
  check_close 1e-12 "xmin" (-1.) xmin;
  check_close 1e-12 "ymin" 0. ymin;
  check_close 1e-12 "xmax" 3. xmax;
  check_close 1e-12 "ymax" 5. ymax

let test_centroid () =
  let cx, cy = Geometry.centroid square in
  check_close 1e-12 "cx" 0.5 cx;
  check_close 1e-12 "cy" 0.5 cy

let random_points_gen =
  QCheck.Gen.(
    list_size (int_range 3 30)
      (pair (float_range (-10.) 10.) (float_range (-10.) 10.)))

let prop_hull_contains_all =
  QCheck.Test.make ~name:"hull contains all input points" ~count:200
    (QCheck.make random_points_gen) (fun pts ->
      let hull = Geometry.convex_hull pts in
      List.length hull < 3
      || List.for_all
           (fun p -> Geometry.point_in_convex_polygon ~tol:1e-6 p hull)
           pts)

let prop_hull_idempotent =
  QCheck.Test.make ~name:"hull is idempotent" ~count:200
    (QCheck.make random_points_gen) (fun pts ->
      let h1 = Geometry.convex_hull pts in
      let h2 = Geometry.convex_hull h1 in
      List.sort compare h1 = List.sort compare h2)

(* clouds on which a chain that fed different points, compared them
   differently or kept another of two equal points would show: repeated
   points, exactly collinear integer grids, near-collinear runs along a
   line whose points round off it, and 0. against -0. *)
let cloud_gen =
  QCheck.Gen.(
    let coord = float_range (-10.) 10. in
    let random = list_size (int_range 0 40) (pair coord coord) in
    let grid =
      let axis = pair (int_range (-3) 3) bool >|= fun (k, neg) ->
        if k = 0 && neg then -0. else float_of_int k
      in
      list_size (int_range 0 40) (pair axis axis)
    in
    let near_line =
      pair (pair coord coord) (list_size (int_range 0 40) (float_range 0. 1.))
      |> map (fun ((a, b), ts) ->
             List.map (fun t -> (t, (a *. t) +. b +. (t *. 1e-16))) ts)
    in
    let signed_zeros =
      list_size (int_range 0 12)
        (oneofl
           [ (0., 0.); (-0., 0.); (0., -0.); (-0., -0.); (1., -0.); (-0., 1.) ])
    in
    oneof [ random; grid; near_line; signed_zeros ] >>= fun pts ->
    list_size (int_range 0 10) (oneofl (if pts = [] then [ (0., 0.) ] else pts))
    >|= fun dups -> pts @ dups @ List.rev pts)

let bitwise_points a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x, y) (x', y') ->
         Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float x')
         && Int64.equal (Int64.bits_of_float y) (Int64.bits_of_float y'))
       a b

let prop_hull_matches_list_chain =
  QCheck.Test.make ~name:"array chain = list chain, bit for bit" ~count:500
    (QCheck.make cloud_gen) (fun pts ->
      bitwise_points (Geometry.convex_hull pts)
        (Umf_reference.List_hull.convex_hull pts))

let suites =
  [
    ( "geometry",
      [
        Alcotest.test_case "cross product" `Quick test_cross;
        Alcotest.test_case "hull of square" `Quick test_hull_square;
        Alcotest.test_case "hull orientation" `Quick test_hull_ccw;
        Alcotest.test_case "hull collinear" `Quick test_hull_collinear;
        Alcotest.test_case "hull degenerate" `Quick test_hull_degenerate;
        Alcotest.test_case "polygon area" `Quick test_area;
        Alcotest.test_case "point in polygon" `Quick test_point_in_polygon;
        Alcotest.test_case "outward normal" `Quick test_outward_normal;
        Alcotest.test_case "edge midpoints + normals" `Quick test_edge_midpoints;
        Alcotest.test_case "boundary resampling" `Quick test_resample;
        Alcotest.test_case "hausdorff" `Quick test_hausdorff;
        Alcotest.test_case "bounding box" `Quick test_bounding_box;
        Alcotest.test_case "centroid" `Quick test_centroid;
        QCheck_alcotest.to_alcotest prop_hull_contains_all;
        QCheck_alcotest.to_alcotest prop_hull_idempotent;
        QCheck_alcotest.to_alcotest prop_hull_matches_list_chain;
      ] );
  ]
