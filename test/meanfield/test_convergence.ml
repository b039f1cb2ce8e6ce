open Umf_numerics
open Umf_meanfield

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

let test_sup_distance () =
  let t1 =
    Ode.Traj.of_arrays [| 0.; 1.; 2. |] [| [| 0. |]; [| 1. |]; [| 2. |] |]
  in
  let t2 =
    Ode.Traj.of_arrays [| 0.; 1.; 2. |] [| [| 0. |]; [| 1.5 |]; [| 2. |] |]
  in
  Alcotest.(check (float 1e-12)) "sup distance" 0.5
    (Convergence.sup_distance t1 t2 ~times:[| 0.; 1.; 2. |]);
  Alcotest.(check (float 1e-12)) "identical" 0.
    (Convergence.sup_distance t1 t1 ~times:[| 0.; 0.5; 1.7 |])

let test_error_decreases_with_n () =
  (* Theorem 1: the error to the mean-field limit vanishes as N grows *)
  let m = bd_model () in
  let times = Vec.linspace 0. 5. 11 in
  let err n =
    Convergence.error_vs_limit m ~n ~theta:[| 1.5 |] ~x0:[| 0.2 |] ~times
      ~runs:20 ~seed:42
  in
  let e_small = err 50 and e_large = err 5000 in
  Alcotest.(check bool)
    (Printf.sprintf "error shrinks: %g -> %g" e_small e_large)
    true
    (e_large < e_small /. 3.);
  (* O(1/sqrt N): a factor 100 in N gives roughly a factor 10 in error *)
  Alcotest.(check bool) "large-N error small" true (e_large < 0.03)

let suites =
  [
    ( "convergence",
      [
        Alcotest.test_case "sup distance" `Quick test_sup_distance;
        Alcotest.test_case "error decreases with N" `Slow test_error_decreases_with_n;
      ] );
  ]
