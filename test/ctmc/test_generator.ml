open Umf_numerics
open Umf_ctmc

let check_float = Alcotest.(check (float 1e-12))

(* two-state chain: 0 -> 1 at rate 2, 1 -> 0 at rate 3 *)
let two_state () = Generator.make ~n:2 [ (0, 1, 2.); (1, 0, 3.) ]

let test_make_basic () =
  let g = two_state () in
  Alcotest.(check int) "n" 2 (Generator.n_states g);
  check_float "exit 0" 2. (Generator.exit_rate g 0);
  check_float "exit 1" 3. (Generator.exit_rate g 1);
  check_float "max exit" 3. (Generator.max_exit_rate g)

let test_make_merges_duplicates () =
  let g = Generator.make ~n:2 [ (0, 1, 1.); (0, 1, 1.5) ] in
  check_float "merged" 2.5 (Generator.exit_rate g 0);
  Alcotest.(check int) "single arc" 1 (Array.length (Generator.outgoing g 0))

let test_make_drops_zero () =
  let g = Generator.make ~n:2 [ (0, 1, 0.) ] in
  Alcotest.(check int) "dropped" 0 (Array.length (Generator.outgoing g 0))

let test_make_validation () =
  Alcotest.check_raises "self loop" (Invalid_argument "Generator.make: self loop")
    (fun () -> ignore (Generator.make ~n:2 [ (0, 0, 1.) ]));
  Alcotest.check_raises "negative" (Invalid_argument "Generator.make: negative rate")
    (fun () -> ignore (Generator.make ~n:2 [ (0, 1, -1.) ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Generator.make: state out of range") (fun () ->
      ignore (Generator.make ~n:2 [ (0, 2, 1.) ]))

let test_to_dense_row_sums () =
  let g = two_state () in
  let q = Generator.to_dense g in
  check_float "row 0 sums to 0" 0. (Vec.sum (Mat.row q 0));
  check_float "row 1 sums to 0" 0. (Vec.sum (Mat.row q 1));
  check_float "q01" 2. (Mat.get q 0 1);
  check_float "q00" (-2.) (Mat.get q 0 0)

let test_uniformized_stochastic () =
  let g = two_state () in
  let p = Umf_reference.Dense.uniformized g in
  check_float "row 0 stochastic" 1. (Vec.sum (Mat.row p 0));
  check_float "row 1 stochastic" 1. (Vec.sum (Mat.row p 1));
  Alcotest.(check bool) "non-negative" true
    (Array.for_all (Array.for_all (fun x -> x >= 0.)) (Mat.to_arrays p))

let test_uniformized_rate_check () =
  Alcotest.check_raises "rate too small"
    (Invalid_argument "Dense.uniformized: rate below max exit rate")
    (fun () ->
      ignore (Umf_reference.Dense.uniformized ~rate:1. (two_state ())))

let test_apply_matches_dense () =
  let g = Generator.make ~n:3 [ (0, 1, 1.); (1, 2, 2.); (2, 0, 0.5); (0, 2, 0.3) ] in
  let q = Generator.to_dense g in
  let v = [| 1.; -2.; 0.7 |] in
  Alcotest.(check bool) "apply = Q v" true
    (Vec.approx_equal ~tol:1e-12 (Mat.mulv q v) (Generator.apply g v));
  Alcotest.(check bool) "apply_forward = Qt v" true
    (Vec.approx_equal ~tol:1e-12 (Mat.tmulv q v) (Generator.apply_forward g v))

let suites =
  [
    ( "generator",
      [
        Alcotest.test_case "basic construction" `Quick test_make_basic;
        Alcotest.test_case "duplicate merging" `Quick test_make_merges_duplicates;
        Alcotest.test_case "zero rates dropped" `Quick test_make_drops_zero;
        Alcotest.test_case "validation" `Quick test_make_validation;
        Alcotest.test_case "dense row sums" `Quick test_to_dense_row_sums;
        Alcotest.test_case "uniformized stochastic" `Quick test_uniformized_stochastic;
        Alcotest.test_case "uniformized rate check" `Quick test_uniformized_rate_check;
        Alcotest.test_case "sparse apply vs dense" `Quick test_apply_matches_dense;
      ] );
  ]
