(* End-to-end checks of the paper's Sec. VI claims on the GPS model. *)
open Umf

let p = Gps.default_params

let test_poisson_uncertain_equals_imprecise () =
  (* Fig. 7(a): for Poisson arrivals, the imprecise and uncertain
     extremes coincide (the drift is monotone in its own lambda only) *)
  let di = Gps.poisson_di p in
  List.iter
    (fun t ->
      List.iter
        (fun coord ->
          let u_lo, u_hi =
            Uncertain.extremal_coord ~grid:5 di ~x0:Gps.x0_poisson ~coord ~horizon:t
          in
          let i_lo =
            (Pontryagin.solve ~steps:250 di ~x0:Gps.x0_poisson ~horizon:t
               ~sense:`Min (`Coord coord))
              .value
          in
          let i_hi =
            (Pontryagin.solve ~steps:250 di ~x0:Gps.x0_poisson ~horizon:t
               ~sense:`Max (`Coord coord))
              .value
          in
          Alcotest.(check (float 2e-3))
            (Printf.sprintf "Q%d upper coincide at t=%g" (coord + 1) t)
            u_hi i_hi;
          Alcotest.(check (float 2e-3))
            (Printf.sprintf "Q%d lower coincide at t=%g" (coord + 1) t)
            u_lo i_lo)
        [ 0; 1 ])
    [ 1.; 3.; 5. ]

let test_map_imprecise_strictly_larger () =
  (* Fig. 7(b): for MAP arrivals, varying lambda in time congests the
     queue well beyond any constant lambda (the delay effect) *)
  let di = Gps.map_di p in
  List.iter
    (fun t ->
      let _, u_hi = Uncertain.extremal_coord ~grid:5 di ~x0:Gps.x0_map ~coord:0 ~horizon:t in
      let i_hi =
        (Pontryagin.solve ~steps:250 di ~x0:Gps.x0_map ~horizon:t ~sense:`Max
           (`Coord 0))
          .value
      in
      Alcotest.(check bool)
        (Printf.sprintf "Q1 imprecise %.3f > 1.5x uncertain %.3f at t=%g" i_hi u_hi t)
        true
        (i_hi > 1.5 *. u_hi))
    [ 1.; 2. ]

let test_map_and_poisson_cycle_times_match () =
  (* the lambda' construction equates mean time between jobs *)
  let box_p = (Model.theta (Gps.make_poisson p)) in
  let l1' = box_p.Optim.Box.hi.(0) in
  Alcotest.(check (float 1e-9)) "mean cycle matched"
    ((1. /. p.Gps.a1) +. (1. /. Interval.hi p.Gps.lambda1))
    (1. /. l1')

let test_ssa_within_pontryagin_bounds () =
  (* finite-N simulation under an adversarial feedback policy stays
     within the imprecise fluid bounds up to O(1/sqrt N) noise *)
  let model = Gps.make_poisson p in
  let di = Gps.poisson_di p in
  let horizon = 3. in
  let i_lo =
    (Pontryagin.solve ~steps:250 di ~x0:Gps.x0_poisson ~horizon ~sense:`Min (`Coord 0)).value
  in
  let i_hi =
    (Pontryagin.solve ~steps:250 di ~x0:Gps.x0_poisson ~horizon ~sense:`Max (`Coord 0)).value
  in
  let box = (Model.theta model) in
  let policy =
    Policy.feedback "adversarial" (fun _t x ->
        if x.(0) < 0.15 then box.Optim.Box.hi else box.Optim.Box.lo)
  in
  let rng = Rng.create 3 in
  for _ = 1 to 10 do
    let x = Ssa.final model ~n:5000 ~x0:Gps.x0_poisson ~policy ~tmax:horizon rng in
    Alcotest.(check bool)
      (Printf.sprintf "Q1 = %.4f within [%.4f, %.4f]" x.(0) i_lo i_hi)
      true
      (x.(0) >= i_lo -. 0.03 && x.(0) <= i_hi +. 0.03)
  done

let test_robust_tuning_improves_over_equal_weights () =
  (* Sec. VI-C: tuning phi1 reduces the worst-case total queue length
     substantially relative to phi1 = phi2 = 1 *)
  let qbar phi1 =
    let di = Gps.map_di (Gps.with_phi1 p phi1) in
    (Pontryagin.solve ~steps:200 di ~x0:Gps.x0_map ~horizon:10. ~sense:`Max
       (`Linear [| 1.; 0.; 1.; 0. |]))
      .value
  in
  let base = qbar 1. and tuned = qbar 9. in
  Alcotest.(check bool)
    (Printf.sprintf "tuned %.3f < base %.3f" tuned base)
    true
    (tuned < base *. 0.85)

let suites =
  [
    ( "gps-paper",
      [
        Alcotest.test_case "Fig 7a Poisson coincide" `Quick test_poisson_uncertain_equals_imprecise;
        Alcotest.test_case "Fig 7b MAP strictly larger" `Quick test_map_imprecise_strictly_larger;
        Alcotest.test_case "cycle-time equivalence" `Quick test_map_and_poisson_cycle_times_match;
        Alcotest.test_case "SSA within fluid bounds" `Slow test_ssa_within_pontryagin_bounds;
        Alcotest.test_case "robust tuning helps" `Quick test_robust_tuning_improves_over_equal_weights;
      ] );
  ]
