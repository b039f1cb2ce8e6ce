open Umf_numerics
open Umf_ctmc
open Umf_reference

let iv = Interval.make

(* precise 2-state DTMC as degenerate intervals: p(0->1)=0.3, p(1->0)=0.4 *)
let precise () =
  Interval_dtmc.make
    [|
      [| iv 0.7 0.7; iv 0.3 0.3 |];
      [| iv 0.4 0.4; iv 0.6 0.6 |];
    |]

let imprecise () =
  Interval_dtmc.make
    [|
      [| iv 0.5 0.8; iv 0.2 0.5 |];
      [| iv 0.3 0.5; iv 0.5 0.7 |];
    |]

let test_validation () =
  Alcotest.check_raises "not square"
    (Invalid_argument "Interval_dtmc.make: matrix not square") (fun () ->
      ignore (Interval_dtmc.make [| [| iv 0. 1. |]; [| iv 0. 1.; iv 0. 1. |] |]));
  Alcotest.check_raises "incoherent"
    (Invalid_argument "Interval_dtmc.make: incoherent row") (fun () ->
      ignore (Interval_dtmc.make [| [| iv 0.6 0.7; iv 0.6 0.7 |]; [| iv 0.5 0.5; iv 0.5 0.5 |] |]))

let test_precise_matches_matrix () =
  let m = precise () in
  let g = [| 1.; 0. |] in
  let lo = Interval_dtmc.lower_matvec m g in
  let hi = Interval_dtmc.upper_matvec m g in
  (* for degenerate intervals lower = upper = P g *)
  Alcotest.(check (float 1e-12)) "row 0" 0.7 lo.(0);
  Alcotest.(check (float 1e-12)) "row 1" 0.4 lo.(1);
  Alcotest.(check bool) "lower = upper" true (Vec.approx_equal lo hi)

let test_lower_le_upper () =
  let m = imprecise () in
  let g = [| 2.; -1. |] in
  let lo = Interval_dtmc.lower_matvec m g in
  let hi = Interval_dtmc.upper_matvec m g in
  Alcotest.(check bool) "ordered" true (Vec.le lo hi)

let test_lower_is_tight () =
  (* row 0 of the imprecise chain, g = (0, 1): the minimising p puts as
     little mass on state 1 as possible: p = (0.8, 0.2) -> 0.2 *)
  let m = imprecise () in
  let lo = Interval_dtmc.lower_matvec m [| 0.; 1. |] in
  Alcotest.(check (float 1e-12)) "tight lower" 0.2 lo.(0);
  let hi = Interval_dtmc.upper_matvec m [| 0.; 1. |] in
  (* maximising: p = (0.5, 0.5) -> 0.5 *)
  Alcotest.(check (float 1e-12)) "tight upper" 0.5 hi.(0)

let test_zero_steps_identity () =
  let m = imprecise () in
  let h = [| 2.5; -1. |] in
  Alcotest.(check bool) "0 steps = reward" true
    (Vec.approx_equal h (Interval_dtmc.lower_expectation m ~h ~steps:0))

let test_constant_reward_invariant () =
  (* lower/upper expectation of a constant is the constant *)
  let m = imprecise () in
  let g = [| 3.; 3. |] in
  let lo = Interval_dtmc.lower_expectation m ~h:g ~steps:7 in
  Alcotest.(check bool) "constant preserved" true
    (Vec.approx_equal ~tol:1e-9 g lo)

let test_monotone_in_steps () =
  (* bounds on an indicator widen (or stay) as the horizon grows *)
  let m = imprecise () in
  let h = [| 1.; 0. |] in
  let width k =
    let lo = Interval_dtmc.lower_expectation m ~h ~steps:k in
    let hi = Interval_dtmc.upper_expectation m ~h ~steps:k in
    hi.(0) -. lo.(0)
  in
  Alcotest.(check bool) "widening" true (width 5 >= width 1 -. 1e-9)

let test_cross_check_with_ictmc () =
  (* the Euler interval-DTMC of an imprecise CTMC gives sound, slightly
     wider bounds than the CTMC's own lower expectation *)
  let box = Optim.Box.make [| 1.; 1. |] [| 2.; 3. |] in
  let at f = Array.of_list (List.map f (Optim.Box.vertices box)) in
  let ictmc =
    Imprecise_ctmc.make ~n:3 ~theta:box
      [
        { Imprecise_ctmc.src = 0; dst = 1; rates = at (fun th -> th.(0)) };
        { Imprecise_ctmc.src = 1; dst = 0; rates = at (fun th -> th.(0)) };
        { Imprecise_ctmc.src = 1; dst = 2; rates = at (fun th -> th.(1)) };
        { Imprecise_ctmc.src = 2; dst = 0; rates = at (fun _ -> 1.) };
      ]
  in
  let horizon = 1.5 in
  let steps = 3000 in
  let dt = horizon /. float_of_int steps in
  let dtmc = Interval_dtmc.of_imprecise_ctmc ictmc ~dt in
  let h = [| 1.; 0.; 0. |] in
  let ctmc_sweep sense =
    (Imprecise_ctmc.fixed_series ~steps_per_unit:2000 ~sense ictmc ~h
       ~times:[| horizon |])
      .values.(0)
  in
  let ctmc_lo = ctmc_sweep `Lower and ctmc_hi = ctmc_sweep `Upper in
  let dtmc_lo = Interval_dtmc.lower_expectation dtmc ~h ~steps in
  let dtmc_hi = Interval_dtmc.upper_expectation dtmc ~h ~steps in
  for s = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "dtmc lower below ctmc lower (state %d)" s)
      true
      (dtmc_lo.(s) <= ctmc_lo.(s) +. 2e-3);
    Alcotest.(check bool)
      (Printf.sprintf "dtmc upper above ctmc upper (state %d)" s)
      true
      (dtmc_hi.(s) >= ctmc_hi.(s) -. 2e-3);
    (* and not absurdly wider *)
    Alcotest.(check bool)
      (Printf.sprintf "dtmc bounds not trivial (state %d)" s)
      true
      (dtmc_hi.(s) -. dtmc_lo.(s) < (ctmc_hi.(s) -. ctmc_lo.(s)) +. 0.25)
  done

let test_dt_too_large () =
  let box = Optim.Box.make [| 10. |] [| 10. |] in
  let ictmc =
    Imprecise_ctmc.make ~n:2 ~theta:box
      [ { Imprecise_ctmc.src = 0; dst = 1; rates = [| 10. |] } ]
  in
  Alcotest.check_raises "dt too large"
    (Invalid_argument "Interval_dtmc.of_imprecise_ctmc: dt too large for exit rates")
    (fun () -> ignore (Interval_dtmc.of_imprecise_ctmc ictmc ~dt:0.5))

(* coherence axioms of the lower transition operator, checked on random
   reward vectors over the imprecise chain *)
let arb_reward =
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "(%g, %g)" a b)
    QCheck.Gen.(pair (float_range (-5.) 5.) (float_range (-5.) 5.))

let prop_monotone =
  QCheck.Test.make ~name:"T_lower monotone" ~count:200
    (QCheck.pair arb_reward arb_reward) (fun ((a1, a2), (d1, d2)) ->
      let m = imprecise () in
      let g = [| a1; a2 |] in
      let h = [| a1 +. Float.abs d1; a2 +. Float.abs d2 |] in
      Vec.le (Interval_dtmc.lower_matvec m g) (Interval_dtmc.lower_matvec m h))

let prop_constant_additive =
  QCheck.Test.make ~name:"T_lower constant-additive" ~count:200
    (QCheck.pair arb_reward (QCheck.float_range (-3.) 3.))
    (fun ((a1, a2), c) ->
      let m = imprecise () in
      let g = [| a1; a2 |] in
      let shifted = Interval_dtmc.lower_matvec m (Vec.map (fun v -> v +. c) g) in
      let base = Vec.map (fun v -> v +. c) (Interval_dtmc.lower_matvec m g) in
      Vec.approx_equal ~tol:1e-9 shifted base)

let prop_superadditive =
  QCheck.Test.make ~name:"T_lower superadditive" ~count:200
    (QCheck.pair arb_reward arb_reward) (fun ((a1, a2), (b1, b2)) ->
      let m = imprecise () in
      let g = [| a1; a2 |] and h = [| b1; b2 |] in
      let sum = Interval_dtmc.lower_matvec m (Vec.add g h) in
      let parts =
        Vec.add (Interval_dtmc.lower_matvec m g) (Interval_dtmc.lower_matvec m h)
      in
      Vec.le (Vec.map (fun v -> v -. 1e-9) parts) sum)

let prop_homogeneous =
  QCheck.Test.make ~name:"T_lower positively homogeneous" ~count:200
    (QCheck.pair arb_reward (QCheck.float_range 0. 4.)) (fun ((a1, a2), l) ->
      let m = imprecise () in
      let g = [| a1; a2 |] in
      let scaled = Interval_dtmc.lower_matvec m (Vec.scale l g) in
      let base = Vec.scale l (Interval_dtmc.lower_matvec m g) in
      Vec.approx_equal ~tol:1e-9 scaled base)

let prop_conjugate =
  QCheck.Test.make ~name:"T_upper = -T_lower(-g)" ~count:200 arb_reward
    (fun (a1, a2) ->
      let m = imprecise () in
      let g = [| a1; a2 |] in
      let up = Interval_dtmc.upper_matvec m g in
      let conj =
        Vec.scale (-1.) (Interval_dtmc.lower_matvec m (Vec.scale (-1.) g))
      in
      Vec.approx_equal ~tol:1e-9 up conj)

let suites =
  [
    ( "interval_dtmc",
      [
        Alcotest.test_case "validation" `Quick test_validation;
        Alcotest.test_case "precise degenerates" `Quick test_precise_matches_matrix;
        Alcotest.test_case "lower <= upper" `Quick test_lower_le_upper;
        Alcotest.test_case "tight row optimisation" `Quick test_lower_is_tight;
        Alcotest.test_case "zero steps identity" `Quick test_zero_steps_identity;
        Alcotest.test_case "constants invariant" `Quick test_constant_reward_invariant;
        Alcotest.test_case "widening in steps" `Quick test_monotone_in_steps;
        Alcotest.test_case "cross-check vs imprecise CTMC" `Slow test_cross_check_with_ictmc;
        Alcotest.test_case "dt bound" `Quick test_dt_too_large;
        QCheck_alcotest.to_alcotest prop_monotone;
        QCheck_alcotest.to_alcotest prop_constant_additive;
        QCheck_alcotest.to_alcotest prop_superadditive;
        QCheck_alcotest.to_alcotest prop_homogeneous;
        QCheck_alcotest.to_alcotest prop_conjugate;
      ] );
  ]
