open Umf_numerics

let check_close tol msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let quadratic x = (x -. 1.3) ** 2. +. 0.5

let test_golden () =
  let x, fx = Optim.golden_section_min quadratic (-10.) 10. in
  check_close 1e-5 "argmin" 1.3 x;
  check_close 1e-9 "min value" 0.5 fx

let test_golden_asymmetric () =
  (* e^x − 3x has its minimum at ln 3, off the bracket's centre *)
  let x, _ = Optim.golden_section_min (fun x -> Float.exp x -. (3. *. x)) 0. 3. in
  check_close 1e-6 "argmin" (Float.log 3.) x

let test_golden_endpoint () =
  (* a monotone f: the bracket shrinks onto its left end *)
  let x, fx = Optim.golden_section_min (fun x -> 2. *. x) 1. 4. in
  check_close 1e-7 "argmin at the left end" 1. x;
  check_close 1e-7 "min value" 2. fx

let box2 lo1 hi1 lo2 hi2 = Optim.Box.make [| lo1; lo2 |] [| hi1; hi2 |]

let test_box_make_invalid () =
  Alcotest.check_raises "lo > hi" (Invalid_argument "Box.make: lo > hi")
    (fun () -> ignore (Optim.Box.make [| 1. |] [| 0. |]))

let test_box_vertices () =
  let b = box2 0. 1. 2. 3. in
  let vs = Optim.Box.vertices b in
  Alcotest.(check int) "4 vertices" 4 (List.length vs);
  Alcotest.(check bool) "contains (0,2)" true
    (List.exists (fun v -> v = [| 0.; 2. |]) vs);
  Alcotest.(check bool) "contains (1,3)" true
    (List.exists (fun v -> v = [| 1.; 3. |]) vs)

let test_box_vertices_degenerate () =
  let b = Optim.Box.make [| 0.; 5. |] [| 1.; 5. |] in
  Alcotest.(check int) "2 vertices when one axis degenerate" 2
    (List.length (Optim.Box.vertices b))

let test_box_grid () =
  let b = box2 0. 1. 0. 1. in
  Alcotest.(check int) "3x3 grid" 9 (List.length (Optim.Box.sample_grid b 3))

(* the θ-grid cap counts exactly the points [sample_grid] would build,
   one on a degenerate axis or when k = 1, and refuses past 4096 *)
let test_grid_cap_counts_sample_grid () =
  let cube = Optim.Box.make [| 0.; 0.; 0. |] [| 1.; 1.; 1. |] in
  let slab = Optim.Box.make [| 0.; 2.; 0. |] [| 1.; 2.; 1. |] in
  List.iter
    (fun (label, b, k) ->
      Optim.Box.check_grid ~who:"test" b k;
      Alcotest.(check bool)
        (label ^ ": at most 4096 points built") true
        (List.length (Optim.Box.sample_grid b k) <= 4096))
    [
      ("16 per axis on a cube", cube, 16);
      ("64 per axis, one axis degenerate", slab, 64);
      ( "one point per axis",
        Optim.Box.make (Array.make 13 0.) (Array.make 13 1.),
        1 );
    ];
  Alcotest.(check int) "16^3 = 4096 points" 4096
    (List.length (Optim.Box.sample_grid cube 16));
  Alcotest.(check int) "a degenerate axis holds one point" 4096
    (List.length (Optim.Box.sample_grid slab 64))

let test_grid_cap_refuses () =
  let cube = Optim.Box.make [| 0.; 0.; 0. |] [| 1.; 1.; 1. |] in
  let slab = Optim.Box.make [| 0.; 2.; 0. |] [| 1.; 2.; 1. |] in
  Alcotest.check_raises "17 per axis on a cube"
    (Invalid_argument
       "who: an uncertain grid of 17 per axis has 4913 points, over the \
        limit of 4096")
    (fun () -> Optim.Box.check_grid ~who:"who" cube 17);
  Alcotest.check_raises "65 per axis, one axis degenerate"
    (Invalid_argument
       "who: an uncertain grid of 65 per axis has 4225 points, over the \
        limit of 4096")
    (fun () -> Optim.Box.check_grid ~who:"who" slab 65);
  (* a count far past any buildable grid is refused from the count
     alone *)
  let wide = Optim.Box.make (Array.make 40 0.) (Array.make 40 1.) in
  Alcotest.check_raises "1000 per axis on 40 axes"
    (Invalid_argument
       "who: an uncertain grid of 1000 per axis has 1e+120 points, over the \
        limit of 4096")
    (fun () -> Optim.Box.check_grid ~who:"who" wide 1000)

let test_box_mem_clamp () =
  let b = box2 0. 1. 0. 1. in
  Alcotest.(check bool) "mem" true (Optim.Box.mem [| 0.5; 0.5 |] b);
  Alcotest.(check bool) "not mem" false (Optim.Box.mem [| 1.5; 0.5 |] b);
  Alcotest.(check bool) "clamp" true
    (Vec.approx_equal (Optim.Box.clamp b [| 1.5; -0.5 |]) [| 1.; 0. |])

let test_box_sample_uniform () =
  let b = box2 2. 3. (-1.) 1. in
  let rng = Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "uniform sample in box" true
      (Optim.Box.mem (Optim.Box.sample_uniform rng b) b)
  done

let test_minimize_box_quadratic () =
  let f v = ((v.(0) -. 0.4) ** 2.) +. ((v.(1) +. 0.2) ** 2.) in
  let x, fx = Optim.minimize_box ~grid:5 f (box2 (-1.) 1. (-1.) 1.) in
  check_close 5e-2 "x0" 0.4 x.(0);
  check_close 5e-2 "x1" (-0.2) x.(1);
  Alcotest.(check bool) "small min" true (fx < 1e-2)

let test_minimize_box_multilinear () =
  (* multilinear: exact at a vertex *)
  let f v = v.(0) *. v.(1) in
  let _, fx = Optim.minimize_box f (box2 (-1.) 2. (-1.) 3.) in
  check_close 1e-12 "vertex minimum" (-3.) fx

let test_maximize_box () =
  let f v = v.(0) +. (2. *. v.(1)) in
  let _, fx = Optim.maximize_box f (box2 0. 1. 0. 1.) in
  check_close 1e-9 "affine max" 3. fx

let test_maximize_box_multilinear () =
  (* multilinear: exact at a vertex, (-1, 3) *)
  let x, fx = Optim.maximize_box (fun v -> -.(v.(0) *. v.(1))) (box2 (-1.) 2. (-1.) 3.) in
  check_close 1e-12 "vertex maximum" 3. fx;
  Alcotest.(check bool) "at corner (-1,3)" true (x = [| -1.; 3. |])

let test_argmax_vertices () =
  let f v = (2. *. v.(0)) -. v.(1) in
  let x, fx = Optim.argmax_vertices f (box2 0. 1. 0. 1.) in
  check_close 1e-12 "value" 2. fx;
  Alcotest.(check bool) "at corner (1,0)" true (x = [| 1.; 0. |])

let prop_minimize_box_below_midpoint =
  (* the reported minimum is never worse than the box midpoint *)
  let gen = QCheck.Gen.(pair (float_range (-2.) 2.) (float_range (-2.) 2.)) in
  QCheck.Test.make ~name:"box min <= f(midpoint)" ~count:50 (QCheck.make gen)
    (fun (a, b) ->
      let f v = Float.sin (a *. v.(0)) +. ((v.(1) -. b) ** 2.) in
      let box = box2 (-3.) 3. (-3.) 3. in
      let _, fx = Optim.minimize_box f box in
      fx <= f (Optim.Box.midpoint box) +. 1e-9)

let suites =
  [
    ( "optim",
      [
        Alcotest.test_case "golden section" `Quick test_golden;
        Alcotest.test_case "golden section asymmetric" `Quick test_golden_asymmetric;
        Alcotest.test_case "golden section endpoint" `Quick test_golden_endpoint;
        Alcotest.test_case "box validation" `Quick test_box_make_invalid;
        Alcotest.test_case "box vertices" `Quick test_box_vertices;
        Alcotest.test_case "degenerate vertices" `Quick test_box_vertices_degenerate;
        Alcotest.test_case "box grid" `Quick test_box_grid;
        Alcotest.test_case "grid cap counts sample_grid" `Quick
          test_grid_cap_counts_sample_grid;
        Alcotest.test_case "grid cap refuses past 4096" `Quick
          test_grid_cap_refuses;
        Alcotest.test_case "box mem/clamp" `Quick test_box_mem_clamp;
        Alcotest.test_case "box uniform samples" `Quick test_box_sample_uniform;
        Alcotest.test_case "box min quadratic" `Quick test_minimize_box_quadratic;
        Alcotest.test_case "box min multilinear exact" `Quick test_minimize_box_multilinear;
        Alcotest.test_case "box max affine" `Quick test_maximize_box;
        Alcotest.test_case "box max multilinear exact" `Quick test_maximize_box_multilinear;
        Alcotest.test_case "argmax over vertices" `Quick test_argmax_vertices;
        QCheck_alcotest.to_alcotest prop_minimize_box_below_midpoint;
      ] );
  ]
