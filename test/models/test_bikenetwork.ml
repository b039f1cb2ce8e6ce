open Umf_numerics
open Umf_meanfield
open Umf_models

let p = Bikenetwork.default_params

let test_validation () =
  Alcotest.check_raises "routing sums"
    (Invalid_argument "Bikenetwork: routing must sum to 1") (fun () ->
      ignore (Bikenetwork.make { p with Bikenetwork.routing = [| 0.5; 0.5; 0.5 |] }));
  Alcotest.check_raises "fleet range"
    (Invalid_argument "Bikenetwork: fleet density must be in (0, 1)") (fun () ->
      ignore (Bikenetwork.make (Bikenetwork.with_fleet p 1.5)))

let test_x0_structure () =
  let x0 = Bikenetwork.x0 p in
  Alcotest.(check int) "dim" 4 (Vec.dim x0);
  Alcotest.(check (float 1e-12)) "fleet conserved at start" 0.6
    (Bikenetwork.total_bikes x0);
  Alcotest.(check (float 1e-12)) "nothing in transit" 0. x0.(3)

let test_drift_conserves_fleet () =
  let m = Bikenetwork.make p in
  List.iter
    (fun (x, th) ->
      let f = Model.drift m x th in
      Alcotest.(check (float 1e-12)) "sum of drift = 0" 0. (Vec.sum f))
    [
      (Bikenetwork.x0 p, [| 0.8; 0.4; 0.4 |]);
      ([| 0.05; 0.2; 0.3; 0.05 |], [| 1.2; 0.6; 0.2 |]);
      ([| 0.; 0.1; 0.1; 0.4 |], [| 0.4; 0.2; 0.2 |]);
    ]

let test_boundary_rates () =
  let m = Bikenetwork.make p in
  (* empty station: no departures from it *)
  let x_empty = [| 0.; 0.2; 0.2; 0.2 |] in
  let f = Model.drift m x_empty [| 1.2; 0.6; 0.6 |] in
  (* station 1 only gains (returns), never loses *)
  Alcotest.(check bool) "empty station cannot lose bikes" true (f.(0) >= 0.);
  (* full station: returns blocked *)
  let cap = 1. /. 3. in
  let x_full = [| cap; 0.1; 0.1; 0.1 |] in
  let f2 = Model.drift m x_full [| 1.2; 0.6; 0.6 |] in
  Alcotest.(check bool) "full station only loses" true (f2.(0) <= 0.)

let test_ssa_conserves_fleet () =
  let m = Bikenetwork.make p in
  let rng = Rng.create 3 in
  let x0 = Bikenetwork.x0 p in
  let traj =
    Ssa.trajectory m ~n:300 ~x0
      ~policy:(Policy.constant [| 0.8; 0.4; 0.4 |])
      ~tmax:10. rng
  in
  Array.iter
    (fun x ->
      Alcotest.(check (float 1e-9)) "fleet conserved" 0.6
        (Bikenetwork.total_bikes x);
      for i = 0 to 2 do
        Alcotest.(check bool) "station within capacity" true
          (x.(i) >= -1e-9 && x.(i) <= (1. /. 3.) +. 1e-9)
      done)
    traj.Ode.Traj.states

let test_fluid_balance () =
  (* with uniform demand and routing, the symmetric state is invariant *)
  let sym =
    {
      p with
      Bikenetwork.demand =
        [| Interval.make 0.5 0.5; Interval.make 0.5 0.5; Interval.make 0.5 0.5 |];
    }
  in
  let di = Bikenetwork.di sym in
  let eq =
    Umf_reference.Ode_ref.integrate_to
      (fun _t x -> di.Umf_diffinc.Di.drift x [| 0.5; 0.5; 0.5 |])
      ~t0:0. ~y0:(Bikenetwork.x0 sym) ~t1:100. ~dt:0.01
  in
  Alcotest.(check (float 1e-6)) "stations symmetric" eq.(0) eq.(1);
  Alcotest.(check (float 1e-6)) "stations symmetric 2" eq.(1) eq.(2);
  (* transit balance: mu z = total departure rate = sum theta_i *)
  Alcotest.(check (float 1e-6)) "Little's law for transit" (3. *. 0.5 /. 3.)
    eq.(3)

let test_starvation_verification () =
  (* without rebalancing, a sustained downtown surge starves station 1
     whatever the fleet (worst-case inflow mu z p1 < theta1_max); with
     enough truck capacity the network is verified safe *)
  let level = 0.01 in
  let verdict r =
    let p' = Bikenetwork.with_rebalance p r in
    Umf_diffinc.Safety.verify ~steps:150 ~check_points:8
      (Bikenetwork.di p')
      ~x0:(Bikenetwork.x0 p')
      ~horizon:8.
      (Bikenetwork.starvation_constraints p' ~level)
  in
  (match verdict 0. with
  | Umf_diffinc.Safety.Violated w ->
      Alcotest.(check bool) "downtown starves without rebalancing" true
        (w.Umf_diffinc.Safety.constraint_.Umf_diffinc.Safety.label
        = "station 1 keeps >= 0.01 bikes")
  | Umf_diffinc.Safety.Safe _ ->
      Alcotest.fail "no rebalancing should starve under a surge");
  match verdict 4. with
  | Umf_diffinc.Safety.Safe margin ->
      Alcotest.(check bool) "rebalanced network safe" true (margin > 0.)
  | Umf_diffinc.Safety.Violated w ->
      Alcotest.failf "rebalanced network starves at t=%.2f (%s)"
        w.Umf_diffinc.Safety.time
        w.Umf_diffinc.Safety.constraint_.Umf_diffinc.Safety.label

let suites =
  [
    ( "bikenetwork",
      [
        Alcotest.test_case "validation" `Quick test_validation;
        Alcotest.test_case "initial state" `Quick test_x0_structure;
        Alcotest.test_case "drift conserves fleet" `Quick test_drift_conserves_fleet;
        Alcotest.test_case "boundary rates" `Quick test_boundary_rates;
        Alcotest.test_case "SSA conserves fleet" `Quick test_ssa_conserves_fleet;
        Alcotest.test_case "symmetric fluid balance" `Quick test_fluid_balance;
        Alcotest.test_case "starvation verification" `Slow test_starvation_verification;
      ] );
  ]
