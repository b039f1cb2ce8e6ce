open Umf_numerics
open Umf_diffinc

let decay_di () = Fixture.di ~lo:[| 1. |] ~hi:[| 2. |] Expr.[| theta 0 -: var 0 |]

let test_envelope_closed_form () =
  (* x^θ(t) = θ (1 - e^{-t}) from x0 = 0; envelope = [x^1(t), x^2(t)] *)
  let di = decay_di () in
  let times = [| 0.; 0.5; 1.; 2. |] in
  let lower, upper = Uncertain.transient_envelope di ~x0:[| 0. |] ~times in
  Array.iteri
    (fun i t ->
      let e = 1. -. Float.exp (-.t) in
      Alcotest.(check (float 1e-4)) (Printf.sprintf "lo t=%g" t) e lower.(i).(0);
      Alcotest.(check (float 1e-4)) (Printf.sprintf "hi t=%g" t) (2. *. e) upper.(i).(0))
    times

let test_envelope_ordering () =
  let di = decay_di () in
  let times = Vec.linspace 0. 3. 7 in
  let lower, upper = Uncertain.transient_envelope di ~x0:[| 0.5 |] ~times in
  Array.iteri
    (fun i _ ->
      Alcotest.(check bool) "lo <= hi" true (Vec.le lower.(i) upper.(i)))
    times

let test_envelope_within_pontryagin () =
  (* Eq. 12: the uncertain set is included in the imprecise one *)
  let di = decay_di () in
  let times = [| 0.5; 1.5; 3. |] in
  let lower, upper = Uncertain.transient_envelope di ~x0:[| 0.5 |] ~times in
  Array.iteri
    (fun i t ->
      let imp_lo =
        (Pontryagin.solve di ~x0:[| 0.5 |] ~horizon:t ~sense:`Min (`Coord 0)).value
      in
      let imp_hi =
        (Pontryagin.solve di ~x0:[| 0.5 |] ~horizon:t ~sense:`Max (`Coord 0)).value
      in
      Alcotest.(check bool) "imprecise lower <= uncertain lower" true
        (imp_lo <= lower.(i).(0) +. 1e-5);
      Alcotest.(check bool) "uncertain upper <= imprecise upper" true
        (upper.(i).(0) <= imp_hi +. 1e-5))
    times

let test_equilibria () =
  let di = decay_di () in
  let eqs = Uncertain.equilibria ~grid:5 di ~x0:[| 0. |] in
  Alcotest.(check int) "5 equilibria" 5 (List.length eqs);
  (* equilibria of ẋ = θ - x are x = θ, spanning [1, 2] *)
  let values = List.map (fun e -> e.(0)) eqs in
  Alcotest.(check (float 1e-6)) "min eq" 1. (List.fold_left Float.min 10. values);
  Alcotest.(check (float 1e-6)) "max eq" 2. (List.fold_left Float.max 0. values)

let test_extremal_coord () =
  let di = decay_di () in
  let lo, hi = Uncertain.extremal_coord di ~x0:[| 0. |] ~coord:0 ~horizon:1. in
  let e = 1. -. Float.exp (-1.) in
  Alcotest.(check (float 1e-4)) "lo" e lo;
  Alcotest.(check (float 1e-4)) "hi" (2. *. e) hi

let test_extremal_validation () =
  let di = decay_di () in
  Alcotest.check_raises "coord"
    (Invalid_argument "Uncertain.extremal_coord: coordinate out of range")
    (fun () -> ignore (Uncertain.extremal_coord di ~x0:[| 0. |] ~coord:1 ~horizon:1.);
  Alcotest.check_raises "NaN sample time"
    (Invalid_argument "Uncertain.transient_envelope: non-finite sample time")
    (fun () ->
      ignore
        (Uncertain.transient_envelope di ~x0:[| 0. |] ~times:[| 1.; Float.nan |])))

let suites =
  [
    ( "uncertain",
      [
        Alcotest.test_case "envelope closed form" `Quick test_envelope_closed_form;
        Alcotest.test_case "envelope ordering" `Quick test_envelope_ordering;
        Alcotest.test_case "uncertain within imprecise" `Quick test_envelope_within_pontryagin;
        Alcotest.test_case "equilibria" `Quick test_equilibria;
        Alcotest.test_case "extremal coord" `Quick test_extremal_coord;
        Alcotest.test_case "validation" `Quick test_extremal_validation;
      ] );
  ]
