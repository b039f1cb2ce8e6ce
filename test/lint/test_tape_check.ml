open Umf_numerics
open Umf_meanfield
open Umf_lint
module TC = Tape_check

let iv = Interval.make

let box_ivs (b : Optim.Box.t) =
  Array.init (Vec.dim b.Optim.Box.lo) (fun i ->
      iv b.Optim.Box.lo.(i) b.Optim.Box.hi.(i))

let codes r = List.map (fun f -> f.TC.code) r.TC.findings

let has r code = TC.findings_with r code <> []

(* ------------------------------------------------------------------ *)
(* double-double reference arithmetic (~1e-32 relative): the "exact"
   side of the soundness contract, far below any certifiable bound     *)
(* ------------------------------------------------------------------ *)

module Dd = struct
  type t = { h : float; l : float }

  let of_float x = { h = x; l = 0. }

  let two_sum a b =
    let s = a +. b in
    let bb = s -. a in
    (s, (a -. (s -. bb)) +. (b -. bb))

  let quick_two_sum a b =
    let s = a +. b in
    (s, b -. (s -. a))

  let two_prod a b =
    let p = a *. b in
    (p, Float.fma a b (-.p))

  let norm (s, e) =
    if Float.is_finite s then
      let h, l = quick_two_sum s e in
      { h; l }
    else { h = s; l = 0. }

  let add x y =
    let s, e = two_sum x.h y.h in
    norm (s, e +. x.l +. y.l)

  let neg x = { h = -.x.h; l = -.x.l }

  let sub x y = add x (neg y)

  let mul x y =
    let p, e = two_prod x.h y.h in
    norm (p, e +. (x.h *. y.l) +. (x.l *. y.h))

  let div x y =
    let q1 = x.h /. y.h in
    if not (Float.is_finite q1) then of_float q1
    else
      let r = sub x (mul (of_float q1) y) in
      norm (quick_two_sum q1 (r.h /. y.h))

  let to_float x = x.h +. x.l
end

(* Reference evaluator: the same instruction stream as {!Tape.Plan.run},
   executed twice per slot — in plain floats (replicating the runtime
   bit for bit, asserted below) and in double-double.  Branches follow
   the FLOAT comparisons, matching the analyzer's branch-local error
   contract: the bound is against the exact result of the branch the
   floats chose. *)
let eval_ref tape =
  let n_slots = Tape.n_slots tape in
  let instrs = Tape.instructions tape in
  let kinds = Array.init n_slots (Tape.slot_kind tape) in
  let outs = Tape.output_slots tape in
  fun (x : Vec.t) (th : Vec.t) ->
    let fl = Array.make n_slots 0. in
    let dd = Array.make n_slots (Dd.of_float 0.) in
    let set s v =
      fl.(s) <- v;
      dd.(s) <- Dd.of_float v
    in
    Array.iteri
      (fun s -> function
        | Tape.Slot_const c -> set s c
        | Tape.Slot_var i -> set s x.(i)
        | Tape.Slot_theta j -> set s th.(j)
        | Tape.Slot_temp -> ())
      kinds;
    Array.iter
      (fun (dst, ins) ->
        match ins with
        | Tape.V_add (a, b) ->
            fl.(dst) <- fl.(a) +. fl.(b);
            dd.(dst) <- Dd.add dd.(a) dd.(b)
        | Tape.V_sub (a, b) ->
            fl.(dst) <- fl.(a) -. fl.(b);
            dd.(dst) <- Dd.sub dd.(a) dd.(b)
        | Tape.V_mul (a, b) ->
            fl.(dst) <- fl.(a) *. fl.(b);
            dd.(dst) <- Dd.mul dd.(a) dd.(b)
        | Tape.V_div (a, b) ->
            fl.(dst) <- fl.(a) /. fl.(b);
            dd.(dst) <- Dd.div dd.(a) dd.(b)
        | Tape.V_neg a ->
            fl.(dst) <- -.fl.(a);
            dd.(dst) <- Dd.neg dd.(a)
        | Tape.V_pow (a, n) ->
            (* same left fold from 1. as the runtime *)
            let accf = ref 1. and accd = ref (Dd.of_float 1.) in
            for _ = 1 to n do
              accf := !accf *. fl.(a);
              accd := Dd.mul !accd dd.(a)
            done;
            fl.(dst) <- !accf;
            dd.(dst) <- !accd
        | Tape.V_min (a, b) ->
            fl.(dst) <- Float.min fl.(a) fl.(b);
            dd.(dst) <- (if fl.(dst) = fl.(a) then dd.(a) else dd.(b))
        | Tape.V_max (a, b) ->
            fl.(dst) <- Float.max fl.(a) fl.(b);
            dd.(dst) <- (if fl.(dst) = fl.(a) then dd.(a) else dd.(b))
        | Tape.V_ite (g, a, b) ->
            let c = if fl.(g) <= 0. then a else b in
            fl.(dst) <- fl.(c);
            dd.(dst) <- dd.(c)
        | Tape.V_muladd (a, b, c) ->
            fl.(dst) <- (fl.(a) *. fl.(b)) +. fl.(c);
            dd.(dst) <- Dd.add (Dd.mul dd.(a) dd.(b)) dd.(c)
        | Tape.V_submul (a, b, c) ->
            fl.(dst) <- fl.(a) -. (fl.(b) *. fl.(c));
            dd.(dst) <- Dd.sub dd.(a) (Dd.mul dd.(b) dd.(c))
        | Tape.V_mulsub (a, b, c) ->
            fl.(dst) <- (fl.(a) *. fl.(b)) -. fl.(c);
            dd.(dst) <- Dd.sub (Dd.mul dd.(a) dd.(b)) dd.(c))
      instrs;
    (Array.map (fun s -> fl.(s)) outs, Array.map (fun s -> dd.(s)) outs)

(* ------------------------------------------------------------------ *)
(* soundness: 10^4 random points per bundled model                     *)
(* ------------------------------------------------------------------ *)

let points = 10_000

let test_soundness name m () =
  let tape = Model.drift_tape m in
  let x_ivs = box_ivs (Model.clip m) and th_ivs = box_ivs (Model.theta m) in
  let rep = TC.analyze tape ~x:x_ivs ~th:th_ivs in
  Alcotest.(check bool)
    (Printf.sprintf "%s float-safe (%s)" name (String.concat "," (codes rep)))
    true rep.TC.float_safe;
  let reference = eval_ref tape in
  let rng = Rng.create 20260809 in
  for _ = 1 to points do
    let x = Optim.Box.sample_uniform rng (Model.clip m) in
    let th = Optim.Box.sample_uniform rng (Model.theta m) in
    let v = Tape.Plan.run_alloc (Tape.Plan.make tape) ~x ~th in
    let fl, dd = reference x th in
    Array.iteri
      (fun i vi ->
        let o = rep.TC.outputs.(i) in
        if Float.is_nan vi then
          Alcotest.failf "%s: output %d is NaN at a sampled point" name i;
        if not (Interval.mem vi o.TC.range) then
          Alcotest.failf "%s: output %d value %.17g escapes [%g, %g]" name i
            vi
            (Interval.lo o.TC.range)
            (Interval.hi o.TC.range);
        (* the reference replication is itself validated against the
           runtime before its double-double twin is trusted *)
        if fl.(i) <> vi then
          Alcotest.failf
            "%s: reference evaluator diverges from the tape runtime (%.17g vs %.17g)"
            name fl.(i) vi;
        if Float.is_finite o.TC.abs_err then begin
          let gap =
            Float.abs (Dd.to_float (Dd.sub (Dd.of_float vi) dd.(i)))
          in
          if gap > (o.TC.abs_err *. (1. +. 1e-9)) +. 1e-300 then
            Alcotest.failf
              "%s: output %d float-vs-exact gap %.3g exceeds certified %.3g"
              name i gap o.TC.abs_err
        end)
      v
  done

(* ------------------------------------------------------------------ *)
(* fixtures: one tape per T-code                                       *)
(* ------------------------------------------------------------------ *)

let analyze_exprs exprs ~x ~th =
  TC.analyze (Tape.compile exprs) ~x:(Array.of_list x) ~th:(Array.of_list th)

let sev r code =
  match TC.findings_with r code with
  | f :: _ -> Some f.TC.severity
  | [] -> None

let check_code r code severity =
  Alcotest.(check bool)
    (Printf.sprintf "%s reported (have: %s)" code (String.concat "," (codes r)))
    true (has r code);
  Alcotest.(check bool)
    (Printf.sprintf "%s severity" code)
    true
    (sev r code = Some severity)

let test_division_codes () =
  let open Expr in
  (* divisor enclosure contains zero: reachable, not certain *)
  let r = analyze_exprs [| const 1. /: var 0 |] ~x:[ iv 0. 1. ] ~th:[] in
  check_code r "T001" TC.Warning;
  check_code r "T103" TC.Warning;
  check_code r "T401" TC.Warning;
  Alcotest.(check bool) "possible div-zero is not an error" true (TC.ok r);
  Alcotest.(check bool) "not float-safe" false r.TC.float_safe;
  Alcotest.(check bool) "error bound uncertifiable" false
    (Float.is_finite r.TC.outputs.(0).TC.abs_err);
  (* divisor identically zero: certain, an error *)
  let r = analyze_exprs [| var 0 /: const 0. |] ~x:[ iv 0. 1. ] ~th:[] in
  check_code r "T002" TC.Error;
  Alcotest.(check bool) "certain div-zero is an error" false (TC.ok r)

let test_nan_overflow_codes () =
  let open Expr in
  (* inf - inf is reachable once both quotients blow up *)
  let r =
    analyze_exprs
      [| (const 1. /: var 0) -: (const 2. /: var 0) |]
      ~x:[ iv 0. 1. ] ~th:[]
  in
  check_code r "T003" TC.Warning;
  Alcotest.(check bool) "NaN reachable on the output" true
    r.TC.outputs.(0).TC.may_be_nan;
  (* finite operands, overflowing square *)
  let r =
    analyze_exprs [| pow (theta 0 *: const 1e200) 2 |] ~x:[] ~th:[ iv 0. 1. ]
  in
  check_code r "T004" TC.Warning

let test_cancellation_and_guard_codes () =
  let open Expr in
  let r =
    analyze_exprs
      [| (var 0 +: const 1e18) -: const 1e18 |]
      ~x:[ iv 0. 1. ] ~th:[]
  in
  check_code r "T102" TC.Warning;
  let r =
    analyze_exprs
      [| Ite (var 0 -: const 0.5, const 1., const 2.) |]
      ~x:[ iv 0. 1. ] ~th:[]
  in
  check_code r "T104" TC.Info

let test_constant_dead_sign_codes () =
  let open Expr in
  (* max(5, theta) == 5 over [0,1]: constant instruction AND output *)
  let r = analyze_exprs [| max_ (const 5.) (theta 0) |] ~x:[] ~th:[ iv 0. 1. ] in
  check_code r "T301" TC.Info;
  check_code r "T302" TC.Info;
  Alcotest.(check bool) "output marked constant" true
    r.TC.outputs.(0).TC.constant;
  (* var 0 is never read *)
  let r = analyze_exprs [| var 1 |] ~x:[ iv 0. 1.; iv 0. 1. ] ~th:[] in
  check_code r "T303" TC.Warning;
  (match TC.findings_with r "T303" with
  | [ f ] ->
      Alcotest.(check bool) "T303 names the dead slot" true
        (f.TC.subject = TC.Var_slot 0)
  | fs -> Alcotest.failf "expected one T303, got %d" (List.length fs));
  (* certified positivity *)
  let r = analyze_exprs [| theta 0 +: const 1. |] ~x:[] ~th:[ iv 0. 1. ] in
  check_code r "T201" TC.Info;
  Alcotest.(check bool) "sign is Pos" true (r.TC.outputs.(0).TC.sign = TC.Pos);
  (* a clean tape earns the safety and error-bound certificates *)
  let r = analyze_exprs [| theta 0 *: var 0 |] ~x:[ iv 0. 1. ] ~th:[ iv 0. 1. ] in
  check_code r "T005" TC.Info;
  check_code r "T101" TC.Info

let test_ranges_total () =
  let open Expr in
  let tape = Tape.compile [| const 1. /: var 0 |] in
  let x = [| iv 0. 1. |] and th = [||] in
  (* the strict evaluator raises; the lint-path replacement must not *)
  (match Tape.Plan.run_interval (Tape.Plan.make tape) ~x ~th with
  | _ -> Alcotest.fail "Tape.Plan.run_interval should raise Division_by_zero"
  | exception Division_by_zero -> ());
  let rs = TC.ranges tape ~x ~th in
  Alcotest.(check bool) "unbounded enclosure instead of an exception" true
    (Interval.lo rs.(0) = Float.neg_infinity
    && Interval.hi rs.(0) = Float.infinity)

(* ------------------------------------------------------------------ *)
(* Lint integration: merged T-findings, Jacobian sign facts, the
   certified vertex rule where the old heuristic differs               *)
(* ------------------------------------------------------------------ *)

let tr name change rate = { Model.name; change; rate }

let crossterm_model () =
  (* rate theta0*theta1*x0: multilinear but NOT affine in theta — the
     old syntactic heuristic refuses vertex enumeration here *)
  let open Expr in
  Model.make ~name:"crossterm" ~var_names:[| "X" |]
    ~theta_names:[| "a"; "b" |]
    ~theta:(Optim.Box.make [| 0.1; 0.1 |] [| 1.; 1. |])
    ~x0:[| 0.5 |]
    [ tr "grow" [| 1. |] (theta 0 *: theta 1 *: var 0) ]

let test_certified_beats_heuristic () =
  let m = crossterm_model () in
  let r = Lint.analyze ~tape:true m in
  Alcotest.(check bool) "vertex optimality proven" true r.Lint.vertex_certified;
  Alcotest.(check bool) "recommendation upgraded to vertices" true
    (r.Lint.recommended_opt = `Vertices);
  Alcotest.(check bool) "T203 records the certificate" true
    (Lint.findings_with r "T203" <> []);
  (* and the Certified pipeline actually runs with vertex enumeration *)
  let res =
    Umf_diffinc.Certified.pontryagin m ~x0:[| 0.5 |] ~horizon:1. ~sense:`Max
      (`Coord 0)
  in
  Alcotest.(check bool) "Pontryagin used vertices" true
    (res.Umf_diffinc.Pontryagin.opt = `Vertices)

let test_theta_kink_not_certified () =
  (* min(theta, c) is concave in theta: a vertex arg max is NOT provable
     and the analyzer must say so instead of guessing *)
  let open Expr in
  let m =
    Model.make ~name:"kinked" ~var_names:[| "X" |] ~theta_names:[| "a" |]
      ~theta:(Optim.Box.make [| 0. |] [| 1. |])
      ~x0:[| 0.5 |]
      [ tr "grow" [| 1. |] (min_ (theta 0) (const 0.5) *: var 0) ]
  in
  let r = Lint.analyze ~tape:true m in
  Alcotest.(check bool) "not vertex certified" false r.Lint.vertex_certified;
  Alcotest.(check bool) "T204 reported" true (Lint.findings_with r "T204" <> []);
  Alcotest.(check bool) "falls back to box search" true
    (r.Lint.recommended_opt = `Box 5)

let test_jacobian_sign_facts () =
  let open Expr in
  let m =
    Model.make ~name:"drain" ~var_names:[| "X" |] ~theta_names:[| "a" |]
      ~theta:(Optim.Box.make [| 0. |] [| 1. |])
      ~x0:[| 0.5 |]
      [ tr "drain" [| -1. |] (theta 0 *: var 0) ]
  in
  (* drift = -a*X, so df/da = -X <= 0: a certified monotonicity fact *)
  let r = Lint.analyze ~tape:true m in
  match Lint.findings_with r "T202" with
  | [ f ] ->
      Alcotest.(check bool) "T202 names the parameter" true
        (f.Lint.subject = Lint.Param 0)
  | fs -> Alcotest.failf "expected one T202, got %d" (List.length fs)

let test_lint_totality_on_division () =
  (* satellite contract: a zero-containing divisor in a rate must come
     back as findings naming the offender — never Division_by_zero *)
  let open Expr in
  let m =
    Model.make ~name:"divzero" ~var_names:[| "X" |] ~theta_names:[| "a" |]
      ~theta:(Optim.Box.make [| 0. |] [| 1. |])
      ~x0:[| 0.5 |]
      [ tr "quotient" [| 1. |] (const 1. /: var 0) ]
  in
  let r = Lint.analyze ~tape:true m in
  Alcotest.(check bool) "L006 division-freedom not certified" true
    (Lint.findings_with r "L006" <> []);
  Alcotest.(check bool) "T001 names the instruction" true
    (Lint.findings_with r "T001" <> [])

let test_certified_gate_rejects_tape_error () =
  let open Expr in
  let m =
    Model.make ~name:"certain-div0" ~var_names:[| "X" |]
      ~theta_names:[| "a" |]
      ~theta:(Optim.Box.make [| 0. |] [| 1. |])
      ~x0:[| 0.5 |]
      [ tr "boom" [| 1. |] (var 0 /: const 0.) ]
  in
  match
    Umf_diffinc.Certified.pontryagin m ~x0:[| 0.5 |] ~horizon:1. ~sense:`Max
      (`Coord 0)
  with
  | _ -> Alcotest.fail "expected Rejected on a certain division by zero"
  | exception Umf_diffinc.Certified.Rejected r ->
      Alcotest.(check bool) "report carries T002" true
        (List.exists (fun f -> f.Lint.code = "T002") (Lint.errors r))

(* ------------------------------------------------------------------ *)
(* NDJSON round-trip                                                   *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let module J = Umf_obs.Obs.Json in
  let m = Umf_models.Sir.make Umf_models.Sir.default_params in
  let r = Lint.analyze ~tape:true m in
  Alcotest.(check bool) "sir has findings to serialise" true
    (r.Lint.findings <> []);
  List.iter
    (fun f ->
      let parsed = J.of_string (J.to_string (Lint.finding_to_json r f)) in
      Alcotest.(check bool) "code survives" true
        (J.member "code" parsed = Some (J.Str f.Lint.code));
      Alcotest.(check bool) "model survives" true
        (J.member "model" parsed = Some (J.Str "sir"));
      Alcotest.(check bool) "message survives" true
        (J.member "message" parsed = Some (J.Str f.Lint.message)))
    r.Lint.findings;
  let s = J.of_string (J.to_string (Lint.summary_to_json r)) in
  Alcotest.(check bool) "summary marker" true
    (J.member "summary" s = Some (J.Bool true));
  Alcotest.(check bool) "summary names the model" true
    (J.member "model" s = Some (J.Str "sir"));
  Alcotest.(check bool) "summary carries float_safe" true
    (J.member "float_safe" s = Some (J.Bool true));
  Alcotest.(check bool) "summary counts errors" true
    (J.member "errors" s = Some (J.Num 0.))

let () =
  let soundness =
    List.map
      (fun (name, m) ->
        Alcotest.test_case
          (Printf.sprintf "%s sound at %d points" name points)
          `Quick (test_soundness name m))
      (Umf_models.Registry.all ())
  in
  Alcotest.run "umf_tape_check"
    [
      ("soundness", soundness);
      ( "fixtures",
        [
          Alcotest.test_case "division codes" `Quick test_division_codes;
          Alcotest.test_case "nan/overflow codes" `Quick
            test_nan_overflow_codes;
          Alcotest.test_case "cancellation and guards" `Quick
            test_cancellation_and_guard_codes;
          Alcotest.test_case "constant/dead/sign codes" `Quick
            test_constant_dead_sign_codes;
          Alcotest.test_case "total interval ranges" `Quick test_ranges_total;
        ] );
      ( "lint integration",
        [
          Alcotest.test_case "certified vertex rule beats heuristic" `Quick
            test_certified_beats_heuristic;
          Alcotest.test_case "theta kink blocks certification" `Quick
            test_theta_kink_not_certified;
          Alcotest.test_case "jacobian sign facts" `Quick
            test_jacobian_sign_facts;
          Alcotest.test_case "division is total in lint paths" `Quick
            test_lint_totality_on_division;
          Alcotest.test_case "certified gate rejects T002" `Quick
            test_certified_gate_rejects_tape_error;
        ] );
      ( "json",
        [ Alcotest.test_case "ndjson round-trip" `Quick test_json_roundtrip ] );
    ]
