open Umf_numerics
open Expr

(* same-or-both-NaN: the tape mirrors Expr.eval operation for
   operation, so values must agree bit-for-bit even through inf/nan *)
let same a b = a = b || (Float.is_nan a && Float.is_nan b)

(* random expression generators over x0, x1 and theta0 — the full
   grammar, Div/Pow/Ite included *)
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
        map2 (fun a b -> Div (a, b)) sub sub;
        map (fun a -> Neg a) sub;
        map2 (fun a n -> Pow (a, n)) sub (int_range 0 4);
        map2 (fun a b -> Min (a, b)) sub sub;
        map2 (fun a b -> Max (a, b)) sub sub;
        map3 (fun g a b -> Ite (g, a, b)) sub sub sub;
        sub;
      ]
  end

let arb_expr = QCheck.make ~print:to_string (expr_gen 4)

let arb_point =
  QCheck.Gen.(
    triple (float_range (-2.) 2.) (float_range (-2.) 2.)
      (float_range (-2.) 2.))

let arb_expr_points =
  QCheck.make
    ~print:(fun (e, _) -> to_string e)
    QCheck.Gen.(pair (expr_gen 4) (list_size (return 5) arb_point))

let prop_tape_matches_interpreter =
  QCheck.Test.make ~name:"Plan.run = Expr.eval (random exprs/points)"
    ~count:500 arb_expr_points (fun (e, points) ->
      let p = Tape.Plan.make (Tape.compile [| e |]) in
      let out = Vec.zeros 1 in
      List.for_all
        (fun (a, b, th) ->
          let x = [| a; b |] and th = [| th |] in
          Tape.Plan.run p ~x ~th ~out;
          same (Expr.eval e ~x ~th) out.(0))
        points)

let prop_multi_output =
  QCheck.Test.make ~name:"multi-output plan matches per-expr eval" ~count:200
    (QCheck.make
       ~print:(fun es -> String.concat "; " (List.map to_string es))
       QCheck.Gen.(list_size (int_range 1 5) (expr_gen 3)))
    (fun es ->
      let arr = Array.of_list es in
      let p = Tape.Plan.make (Tape.compile arr) in
      let x = [| 0.37; -1.2 |] and th = [| 2.3 |] in
      let out = Tape.Plan.run_alloc p ~x ~th in
      Array.length out = Array.length arr
      && Array.for_all2 same (Array.map (fun e -> Expr.eval e ~x ~th) arr) out)

let prop_cse_shares_instructions =
  (* compiling the same tree twice must not execute it twice *)
  QCheck.Test.make ~name:"CSE: duplicated outputs cost no extra instructions"
    ~count:200 arb_expr (fun e ->
      let one = Tape.n_instructions (Tape.compile [| e |]) in
      let two = Tape.n_instructions (Tape.compile [| e; e |]) in
      two = one)

let prop_instructions_bounded_by_nodes =
  QCheck.Test.make ~name:"CSE: instructions <= tree nodes" ~count:200 arb_expr
    (fun e ->
      Tape.n_instructions (Tape.compile [| e |]) <= Tape.n_nodes [| e |])

let prop_interval_sound =
  (* the plan enclosure contains every pointwise tape value on the box *)
  QCheck.Test.make ~name:"plan interval enclosure sound" ~count:500
    arb_expr_points (fun (e, points) ->
      let p = Tape.Plan.make (Tape.compile [| e |]) in
      let xa = Interval.make (-2.) 2. and ta = Interval.make (-2.) 2. in
      let enc =
        try (Tape.Plan.run_interval p ~x:[| xa; xa |] ~th:[| ta |]).(0)
        with Division_by_zero ->
          QCheck.assume false;
          assert false
      in
      List.for_all
        (fun (a, b, th) ->
          let pt = Expr.eval e ~x:[| a; b |] ~th:[| th |] in
          (not (Float.is_finite pt))
          || (let tol = 1e-9 *. Float.max 1. (Float.abs pt) in
              Interval.lo enc -. tol <= pt && pt <= Interval.hi enc +. tol))
        points)

let prop_batch_matches_scalar =
  (* the structure-of-arrays kernel must agree with the scalar run
     BITWISE, lane by lane — a chunk of 3 forces both full chunks and a
     ragged tail over the 5-point batch *)
  QCheck.Test.make ~name:"Plan.run_batch = scalar Plan.run loop (bitwise)"
    ~count:500 arb_expr_points (fun (e, points) ->
      let plan = Tape.Plan.make ~chunk:3 (Tape.compile [| e |]) in
      let pts = Array.of_list points in
      let n = Array.length pts in
      let xs =
        Mat.init n 2 (fun i j ->
            let a, b, _ = pts.(i) in
            if j = 0 then a else b)
      and ths =
        Mat.init n 1 (fun i _ ->
            let _, _, th = pts.(i) in
            th)
      in
      let out = Mat.zeros n 1 in
      Tape.Plan.run_batch plan ~xs ~ths ~out;
      let scalar = Vec.zeros 1 in
      Array.for_all
        (fun i ->
          let a, b, th = pts.(i) in
          Tape.Plan.run plan ~x:[| a; b |] ~th:[| th |] ~out:scalar;
          Mat.get out i 0 = scalar.(0)
          || (Float.is_nan (Mat.get out i 0) && Float.is_nan scalar.(0)))
        (Array.init n Fun.id))

let test_constants_preloaded () =
  (* constant leaves live in preloaded slots, not instructions: the sum
     of two constants executes exactly one Add and nothing else *)
  let t = Tape.compile [| Expr.(const 2. +: const 3.) |] in
  Alcotest.(check int) "one executed instruction" 1 (Tape.n_instructions t);
  Alcotest.(check int) "constant alone executes nothing" 0
    (Tape.n_instructions (Tape.compile [| Expr.const 7. |]));
  Alcotest.(check (float 0.)) "value" 5.
    (Tape.Plan.run_alloc (Tape.Plan.make t) ~x:[||] ~th:[||]).(0)

let test_plan_validation () =
  let t = Tape.compile [| Expr.(var 0 +: theta 0) |] in
  let p = Tape.Plan.make t in
  Alcotest.check_raises "missing variable"
    (Invalid_argument "Tape: variable out of range") (fun () ->
      Tape.Plan.run p ~x:[||] ~th:[| 1. |] ~out:(Vec.zeros 1));
  Alcotest.check_raises "bad chunk"
    (Invalid_argument "Tape.Plan.make: chunk must be >= 1") (fun () ->
      ignore (Tape.Plan.make ~chunk:0 t))

let test_batch_validation () =
  (* the batch entry point fails loudly, spelling the shapes out, and
     evaluates nothing on a bad batch *)
  let t = Tape.compile [| Expr.(var 0 +: theta 0) |] in
  let p = Tape.Plan.make t in
  Alcotest.check_raises "empty batch"
    (Invalid_argument
       "Tape.Plan.run_batch: empty batch (xs 0x1, ths 0x1, out 0x1)")
    (fun () ->
      Tape.Plan.run_batch p ~xs:(Mat.zeros 0 1) ~ths:(Mat.zeros 0 1)
        ~out:(Mat.zeros 0 1));
  Alcotest.check_raises "row mismatch"
    (Invalid_argument
       "Tape.Plan.run_batch: batch row mismatch (xs 4x1, ths 3x1, out 4x1)")
    (fun () ->
      Tape.Plan.run_batch p ~xs:(Mat.zeros 4 1) ~ths:(Mat.zeros 3 1)
        ~out:(Mat.zeros 4 1));
  Alcotest.check_raises "inputs too narrow"
    (Invalid_argument
       "Tape.Plan.run_batch: inputs too narrow (xs 4x0, ths 4x1, out 4x1; \
        tape needs >= 1 vars, >= 1 thetas)")
    (fun () ->
      Tape.Plan.run_batch p ~xs:(Mat.zeros 4 0) ~ths:(Mat.zeros 4 1)
        ~out:(Mat.zeros 4 1));
  Alcotest.check_raises "output width mismatch"
    (Invalid_argument
       "Tape.Plan.run_batch: output width mismatch (xs 4x1, ths 4x1, out \
        4x2; tape has 1 outputs)")
    (fun () ->
      Tape.Plan.run_batch p ~xs:(Mat.zeros 4 1) ~ths:(Mat.zeros 4 1)
        ~out:(Mat.zeros 4 2))

let test_ite_selects_like_interpreter () =
  (* guard <= 0 picks the then-branch, > 0 the else-branch — and the
     eagerly evaluated inactive branch never corrupts the result *)
  let e = Expr.(Ite (var 0, const 1., const 2.)) in
  let p = Tape.Plan.make (Tape.compile [| e |]) in
  Alcotest.(check (float 0.)) "guard negative" 1.
    (Tape.Plan.run_alloc p ~x:[| -1. |] ~th:[||]).(0);
  Alcotest.(check (float 0.)) "guard zero" 1.
    (Tape.Plan.run_alloc p ~x:[| 0. |] ~th:[||]).(0);
  Alcotest.(check (float 0.)) "guard positive" 2.
    (Tape.Plan.run_alloc p ~x:[| 1. |] ~th:[||]).(0)

let suites =
  [
    ( "tape",
      [
        Alcotest.test_case "constants preloaded" `Quick test_constants_preloaded;
        Alcotest.test_case "plan validation" `Quick test_plan_validation;
        Alcotest.test_case "batch validation" `Quick test_batch_validation;
        Alcotest.test_case "ite selection" `Quick test_ite_selects_like_interpreter;
        QCheck_alcotest.to_alcotest prop_tape_matches_interpreter;
        QCheck_alcotest.to_alcotest prop_multi_output;
        QCheck_alcotest.to_alcotest prop_cse_shares_instructions;
        QCheck_alcotest.to_alcotest prop_instructions_bounded_by_nodes;
        QCheck_alcotest.to_alcotest prop_interval_sound;
        QCheck_alcotest.to_alcotest prop_batch_matches_scalar;
      ] );
  ]
