open Umf_numerics
module Diff = Umf_reference.Diff
open Expr

let check_float = Alcotest.(check (float 1e-12))

(* f(x, th) = a x0 + th0 x0 x1  (the SIR infection rate) *)
let infection a = (const a *: var 0) +: (theta 0 *: var 0 *: var 1)

let test_eval () =
  let e = infection 0.1 in
  check_float "infection" ((0.1 *. 0.7) +. (5. *. 0.7 *. 0.3))
    (eval e ~x:[| 0.7; 0.3 |] ~th:[| 5. |])

let test_eval_ops () =
  let x = [| 2.; 3. |] and th = [| 4. |] in
  check_float "sub" (-1.) (eval (var 0 -: var 1) ~x ~th);
  check_float "div" (2. /. 3.) (eval (var 0 /: var 1) ~x ~th);
  check_float "neg" (-2.) (eval (neg (var 0)) ~x ~th);
  check_float "pow" 8. (eval (pow (var 0) 3) ~x ~th);
  check_float "pow 0" 1. (eval (pow (var 0) 0) ~x ~th);
  check_float "min" 2. (eval (min_ (var 0) (var 1)) ~x ~th);
  check_float "max" 4. (eval (max_ (var 1) (theta 0)) ~x ~th);
  check_float "ite low" 2. (eval (Ite (const (-1.), var 0, var 1)) ~x ~th);
  check_float "ite high" 3. (eval (Ite (const 1., var 0, var 1)) ~x ~th)

let test_eval_out_of_range () =
  Alcotest.check_raises "var range" (Invalid_argument "Expr.eval: variable out of range")
    (fun () -> ignore (eval (var 2) ~x:[| 1. |] ~th:[||]));
  Alcotest.check_raises "constructor" (Invalid_argument "Expr.var: negative index")
    (fun () -> ignore (var (-1)))

let test_diff_polynomial () =
  (* d/dx0 (a x0 + th x0 x1) = a + th x1 *)
  let e = infection 0.1 in
  let d = diff_var e 0 in
  check_float "derivative" (0.1 +. (5. *. 0.3)) (eval d ~x:[| 0.7; 0.3 |] ~th:[| 5. |]);
  let d1 = diff_var e 1 in
  check_float "d/dx1" (5. *. 0.7) (eval d1 ~x:[| 0.7; 0.3 |] ~th:[| 5. |])

let test_diff_theta () =
  let e = infection 0.1 in
  check_float "d/dth" (0.7 *. 0.3)
    (eval (diff_theta e 0) ~x:[| 0.7; 0.3 |] ~th:[| 5. |])

let test_diff_quotient_pow () =
  (* d/dx (x^2 / (1 + x)) = (2x(1+x) - x^2) / (1+x)^2 *)
  let e = pow (var 0) 2 /: (const 1. +: var 0) in
  let d = diff_var e 0 in
  let x = 1.5 in
  let expected = ((2. *. x *. (1. +. x)) -. (x *. x)) /. ((1. +. x) ** 2.) in
  check_float "quotient rule" expected (eval d ~x:[| x |] ~th:[||])

let test_diff_minmax_piecewise () =
  (* d/dx max(0, 1 - x) = -1 for x < 1, 0 for x > 1 *)
  let e = max_ (const 0.) (const 1. -: var 0) in
  let d = diff_var e 0 in
  check_float "active branch" (-1.) (eval d ~x:[| 0.5 |] ~th:[||]);
  check_float "inactive branch" 0. (eval d ~x:[| 2. |] ~th:[||])

let test_diff_matches_fd () =
  let e =
    (theta 0 *: var 0 *: var 1)
    +: (var 0 /: (const 1. +: (var 1 *: var 1)))
    -: pow (var 0) 3
  in
  let x = [| 0.8; 0.4 |] and th = [| 2.5 |] in
  let analytic = eval (diff_var e 0) ~x ~th in
  let fd = Diff.gradient (fun y -> eval e ~x:y ~th) x in
  check_float "matches FD (1e-6)" 0. (Float.round ((analytic -. fd.(0)) /. 1e-6) *. 1e-6)

let test_interval_enclosure () =
  let e = infection 0.1 in
  let enc =
    eval_interval e
      ~x:[| Interval.make 0.5 0.9; Interval.make 0.1 0.3 |]
      ~th:[| Interval.make 1. 10. |]
  in
  (* check that pointwise evaluations land inside *)
  List.iter
    (fun (s, i, th) ->
      Alcotest.(check bool) "pointwise inside" true
        (Interval.mem (eval e ~x:[| s; i |] ~th:[| th |]) enc))
    [ (0.5, 0.1, 1.); (0.9, 0.3, 10.); (0.7, 0.2, 5.) ]

let test_interval_ite () =
  (* undecided guard takes the hull of both branches *)
  let e = Ite (var 0, const 1., const 5.) in
  let enc = eval_interval e ~x:[| Interval.make (-1.) 1. |] ~th:[||] in
  Alcotest.(check bool) "hull of branches" true
    (Interval.lo enc = 1. && Interval.hi enc = 5.);
  let decided = eval_interval e ~x:[| Interval.make (-2.) (-1.) |] ~th:[||] in
  check_float "decided guard" 1. (Interval.lo decided);
  check_float "decided guard hi" 1. (Interval.hi decided)

let test_simplify () =
  let e = (const 0. *: var 0) +: (const 1. *: theta 0) -: const 0. in
  Alcotest.(check bool) "collapses" true (simplify e = Theta 0);
  let c = (const 2. *: const 3.) +: const 4. in
  Alcotest.(check bool) "constant folds" true (simplify c = Const 10.);
  (* simplify preserves evaluation on a nontrivial tree *)
  let t = infection 0.1 /: (const 1. +: pow (var 1) 2) in
  let x = [| 0.7; 0.3 |] and th = [| 5. |] in
  check_float "semantics preserved" (eval t ~x ~th) (eval (simplify t) ~x ~th)

let test_affine_detection () =
  Alcotest.(check bool) "infection affine in theta" true
    (is_affine_in_theta (infection 0.1));
  Alcotest.(check bool) "theta^2 not affine" false
    (is_affine_in_theta (pow (theta 0) 2));
  Alcotest.(check bool) "theta*theta not affine" false
    (is_affine_in_theta (theta 0 *: theta 0));
  Alcotest.(check bool) "min over theta not affine" false
    (is_affine_in_theta (min_ (theta 0) (const 1.)));
  Alcotest.(check bool) "theta-free min ok" true
    (is_affine_in_theta (theta 0 *: min_ (var 0) (const 1.)))

let test_multilinear_detection () =
  Alcotest.(check bool) "x*y*th multilinear" true
    (is_multilinear (var 0 *: var 1 *: theta 0));
  Alcotest.(check bool) "x^2 not" false (is_multilinear (pow (var 0) 2));
  Alcotest.(check bool) "x*x not" false (is_multilinear (var 0 *: var 0));
  Alcotest.(check bool) "division not" false (is_multilinear (var 0 /: var 1));
  Alcotest.(check bool) "sum of products ok" true
    (is_multilinear ((var 0 *: theta 0) +: var 1))

let test_leaves () =
  let e = infection 0.1 in
  Alcotest.(check (list int)) "vars" [ 0; 1 ] (vars e);
  Alcotest.(check (list int)) "thetas" [ 0 ] (thetas e)

let test_pp () =
  Alcotest.(check bool) "prints" true
    (String.length (to_string (infection 0.1)) > 0)

(* random expression generator for property tests *)
let rec expr_gen depth =
  let open QCheck.Gen in
  if depth = 0 then
    oneof
      [
        map (fun c -> Const c) (float_range (-3.) 3.);
        map (fun i -> Var i) (int_range 0 1);
        return (Theta 0);
      ]
  else begin
    let sub = expr_gen (depth - 1) in
    oneof
      [
        map2 (fun a b -> Add (a, b)) sub sub;
        map2 (fun a b -> Sub (a, b)) sub sub;
        map2 (fun a b -> Mul (a, b)) sub sub;
        map (fun a -> Neg a) sub;
        map2 (fun a b -> Min (a, b)) sub sub;
        map2 (fun a b -> Max (a, b)) sub sub;
        sub;
      ]
  end

let arb_expr = QCheck.make ~print:to_string (expr_gen 4)

let prop_simplify_preserves_eval =
  QCheck.Test.make ~name:"simplify preserves evaluation" ~count:300 arb_expr
    (fun e ->
      let x = [| 0.37; -1.2 |] and th = [| 2.3 |] in
      let a = eval e ~x ~th and b = eval (simplify e) ~x ~th in
      Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs a))

let prop_interval_sound =
  QCheck.Test.make ~name:"interval enclosure sound" ~count:300 arb_expr
    (fun e ->
      let xa = Interval.make (-0.5) 0.8 and xb = Interval.make 0.1 1.2 in
      let ta = Interval.make 0.5 2. in
      let enc = eval_interval e ~x:[| xa; xb |] ~th:[| ta |] in
      List.for_all
        (fun (u, v, w) ->
          let p =
            eval e
              ~x:[| Interval.lo xa +. (u *. Interval.width xa);
                    Interval.lo xb +. (v *. Interval.width xb) |]
              ~th:[| Interval.lo ta +. (w *. Interval.width ta) |]
          in
          Interval.lo enc -. 1e-9 <= p && p <= Interval.hi enc +. 1e-9)
        [ (0., 0., 0.); (1., 1., 1.); (0.5, 0.5, 0.5); (0., 1., 0.5); (1., 0., 0.2) ])

(* the full grammar, Div/Pow/Ite included, for the enclosure property;
   divisions make some draws partial (Division_by_zero from interval
   division, non-finite points), filtered with [assume] *)
let rec full_gen depth =
  let open QCheck.Gen in
  if depth = 0 then
    oneof
      [
        map (fun c -> Const c) (float_range (-3.) 3.);
        map (fun i -> Var i) (int_range 0 1);
        return (Theta 0);
      ]
  else begin
    let sub = full_gen (depth - 1) in
    oneof
      [
        map2 (fun a b -> Add (a, b)) sub sub;
        map2 (fun a b -> Sub (a, b)) sub sub;
        map2 (fun a b -> Mul (a, b)) sub sub;
        map2 (fun a b -> Div (a, b)) sub sub;
        map (fun a -> Neg a) sub;
        map2 (fun a n -> Pow (a, n)) sub (int_range 0 3);
        map2 (fun a b -> Min (a, b)) sub sub;
        map2 (fun a b -> Max (a, b)) sub sub;
        map3 (fun g a b -> Ite (g, a, b)) sub sub sub;
        sub;
      ]
  end

(* a random tree, a random box (per-coordinate lo and width) and random
   relative sample positions inside the box *)
let arb_boxed =
  let open QCheck.Gen in
  let iv = pair (float_range (-2.) 2.) (float_range 0. 2.) in
  let point =
    triple (float_range 0. 1.) (float_range 0. 1.) (float_range 0. 1.)
  in
  QCheck.make
    ~print:(fun (e, _, _) -> to_string e)
    (triple (full_gen 4) (triple iv iv iv) (list_size (int_range 1 5) point))

let prop_interval_sound_random =
  QCheck.Test.make ~name:"interval enclosure sound (random boxes/points)"
    ~count:500 arb_boxed (fun (e, ((la, wa), (lb, wb), (lt, wt)), points) ->
      let xa = Interval.make la (la +. wa) in
      let xb = Interval.make lb (lb +. wb) in
      let ta = Interval.make lt (lt +. wt) in
      let enc =
        try eval_interval e ~x:[| xa; xb |] ~th:[| ta |]
        with Division_by_zero -> QCheck.assume false; assert false
      in
      List.for_all
        (fun (u, v, w) ->
          let p =
            eval e
              ~x:[| la +. (u *. wa); lb +. (v *. wb) |]
              ~th:[| lt +. (w *. wt) |]
          in
          (not (Float.is_finite p))
          || (let tol = 1e-6 *. Float.max 1. (Float.abs p) in
              Interval.lo enc -. tol <= p && p <= Interval.hi enc +. tol))
        points)

let prop_simplify_preserves_eval_random =
  QCheck.Test.make ~name:"simplify preserves evaluation (random points)"
    ~count:500 arb_boxed (fun (e, ((la, wa), (lb, wb), (lt, wt)), points) ->
      List.for_all
        (fun (u, v, w) ->
          let x = [| la +. (u *. wa); lb +. (v *. wb) |] in
          let th = [| lt +. (w *. wt) |] in
          let a = eval e ~x ~th and b = eval (simplify e) ~x ~th in
          if not (Float.is_finite a) then true
          else Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.abs a))
        points)

(* smooth expressions (no Min/Max kinks): FD must match tightly *)
let rec smooth_gen depth =
  let open QCheck.Gen in
  if depth = 0 then
    oneof
      [
        map (fun c -> Const c) (float_range (-3.) 3.);
        map (fun i -> Var i) (int_range 0 1);
        return (Theta 0);
      ]
  else begin
    let sub = smooth_gen (depth - 1) in
    oneof
      [
        map2 (fun a b -> Add (a, b)) sub sub;
        map2 (fun a b -> Sub (a, b)) sub sub;
        map2 (fun a b -> Mul (a, b)) sub sub;
        map (fun a -> Neg a) sub;
        map (fun a -> Pow (a, 2)) sub;
        sub;
      ]
  end

let prop_diff_matches_fd =
  QCheck.Test.make ~name:"symbolic derivative matches FD (smooth)" ~count:300
    (QCheck.make ~print:to_string (smooth_gen 4)) (fun e ->
      let x = [| 0.43; 0.91 |] and th = [| 1.7 |] in
      let analytic = eval (diff_var e 0) ~x ~th in
      let h = 1e-5 in
      let xp = [| x.(0) +. h; x.(1) |] and xm = [| x.(0) -. h; x.(1) |] in
      let fd = (eval e ~x:xp ~th -. eval e ~x:xm ~th) /. (2. *. h) in
      QCheck.assume (Float.is_finite fd && Float.is_finite analytic);
      Float.abs (analytic -. fd) <= 1e-4 *. Float.max 1. (Float.abs fd))

let suites =
  [
    ( "expr",
      [
        Alcotest.test_case "eval" `Quick test_eval;
        Alcotest.test_case "eval all operators" `Quick test_eval_ops;
        Alcotest.test_case "range validation" `Quick test_eval_out_of_range;
        Alcotest.test_case "polynomial derivative" `Quick test_diff_polynomial;
        Alcotest.test_case "theta derivative" `Quick test_diff_theta;
        Alcotest.test_case "quotient/power rules" `Quick test_diff_quotient_pow;
        Alcotest.test_case "min/max piecewise derivative" `Quick test_diff_minmax_piecewise;
        Alcotest.test_case "derivative vs FD" `Quick test_diff_matches_fd;
        Alcotest.test_case "interval enclosure" `Quick test_interval_enclosure;
        Alcotest.test_case "interval ite" `Quick test_interval_ite;
        Alcotest.test_case "simplify" `Quick test_simplify;
        Alcotest.test_case "affine-in-theta detection" `Quick test_affine_detection;
        Alcotest.test_case "multilinear detection" `Quick test_multilinear_detection;
        Alcotest.test_case "leaves" `Quick test_leaves;
        Alcotest.test_case "pretty printing" `Quick test_pp;
        QCheck_alcotest.to_alcotest prop_simplify_preserves_eval;
        QCheck_alcotest.to_alcotest prop_interval_sound;
        QCheck_alcotest.to_alcotest prop_interval_sound_random;
        QCheck_alcotest.to_alcotest prop_simplify_preserves_eval_random;
        QCheck_alcotest.to_alcotest prop_diff_matches_fd;
      ] );
  ]
