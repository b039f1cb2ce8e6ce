open Umf_numerics
open Umf_meanfield
open Umf_ctmc
open Umf_models

let p = Bikesharing.default_params

(* the precise chain of an imprecise one at its v-th θ-vertex *)
let vertex_generator m v =
  Generator.make ~n:(Imprecise_ctmc.n_states m)
    (List.map
       (fun tr -> Imprecise_ctmc.(tr.src, tr.dst, tr.rates.(v)))
       (Imprecise_ctmc.transitions m))

(* the station at one constant θ: a point box has a single vertex *)
let station_at ~capacity (ta, tr) =
  let point v = Interval.make v v in
  vertex_generator
    (Bikesharing.ictmc { arrival = point ta; return_ = point tr } ~capacity)
    0

let test_drift_interior () =
  let m = Bikesharing.make p in
  (* interior: f = theta_r - theta_a *)
  let f = Model.drift m [| 0.5 |] [| 1.; 1.2 |] in
  Alcotest.(check (float 1e-12)) "net flow" 0.2 f.(0)

let test_drift_boundaries () =
  let m = Bikesharing.make p in
  let f_empty = Model.drift m [| 0. |] [| 1.4; 0.9 |] in
  Alcotest.(check (float 1e-12)) "no departures when empty" 0.9 f_empty.(0);
  let f_full = Model.drift m [| 1. |] [| 1.4; 0.9 |] in
  Alcotest.(check (float 1e-12)) "no returns when full" (-1.4) f_full.(0)

let test_ictmc_structure () =
  let m = Bikesharing.ictmc p ~capacity:5 in
  Alcotest.(check int) "states" 6 (Imprecise_ctmc.n_states m);
  (* vertex 1 of [0.8, 1.4] x [0.9, 1.2] is (0.8, 1.2) *)
  let g = vertex_generator m 1 in
  Alcotest.(check (float 1e-12)) "state 0: only returns" 1.2 (Generator.exit_rate g 0);
  Alcotest.(check (float 1e-12)) "state 5: only departures" 0.8 (Generator.exit_rate g 5);
  Alcotest.(check (float 1e-12)) "interior" 2. (Generator.exit_rate g 3);
  Alcotest.(check (float 1e-12)) "exit bound at the (1.4, 1.2) vertex" 2.6
    (Imprecise_ctmc.max_exit_bound m)

let test_ictmc_bounds_bracket_constant_theta () =
  let capacity = 8 in
  let m = Bikesharing.ictmc p ~capacity in
  let h = Bikesharing.occupancy_reward ~capacity in
  let horizon = 2. in
  let sweep sense =
    (Imprecise_ctmc.fixed_series ~sense m ~h ~times:[| horizon |]).values.(0)
  in
  let lo = sweep `Lower and hi = sweep `Upper in
  (* exact transient expectation for a few constant parameter choices
     must lie within the imprecise bounds *)
  let x0 = 4 in
  List.iter
    (fun (ta, tr) ->
      let g = station_at ~capacity (ta, tr) in
      let p0 = Array.init (capacity + 1) (fun i -> if i = x0 then 1. else 0.) in
      let e = Vec.dot (fst (Transient.uniformization g ~p0 ~t:horizon)) h in
      Alcotest.(check bool)
        (Printf.sprintf "theta (%g, %g) bracketed" ta tr)
        true
        (lo.(x0) -. 2e-3 <= e && e <= hi.(x0) +. 2e-3))
    [ (0.8, 0.9); (1.4, 1.2); (1.1, 1.05); (0.8, 1.2); (1.4, 0.9) ]

let test_empty_probability_monotone_in_horizon () =
  let capacity = 6 in
  let m = Bikesharing.ictmc p ~capacity in
  (* starting full, the upper bound on being empty grows with time *)
  let h = Bikesharing.empty_indicator ~capacity in
  let up t =
    (Imprecise_ctmc.fixed_series ~sense:`Upper m ~h ~times:[| t |]).values.(0).(capacity)
  in
  let u1 = up 1. and u4 = up 4. in
  Alcotest.(check bool) "monotone upper bound" true (u4 >= u1 -. 1e-9);
  Alcotest.(check bool) "bounded by 1" true (u4 <= 1. +. 1e-9)

let test_meanfield_matches_ictmc_large_capacity () =
  (* Theorem 1 for the bike station: with constant theta, the ICTMC
     occupancy expectation at large N approaches the fluid solution *)
  let capacity = 200 in
  let theta = [| 0.9; 1.2 |] in
  let g = station_at ~capacity (theta.(0), theta.(1)) in
  (* note: the finite chain takes ~N time to fill since rates are O(1);
     the population model's rates are N-scaled, so compare at time N*t *)
  let t_fluid = 0.5 in
  let p0 = Array.init (capacity + 1) (fun i -> if i = capacity / 2 then 1. else 0.) in
  let e =
    Vec.dot
      (fst (Transient.uniformization g ~p0 ~t:(t_fluid *. float_of_int capacity)))
      (Array.init (capacity + 1) (fun s -> float_of_int s /. float_of_int capacity))
  in
  let di = Bikesharing.di p in
  let fluid =
    Umf_diffinc.Di.integrate_constant di ~theta ~x0:[| 0.5 |] ~horizon:t_fluid
      ~dt:1e-3
  in
  Alcotest.(check bool)
    (Printf.sprintf "fluid %.3f vs chain %.3f" (Ode.Traj.last fluid).(0) e)
    true
    (Float.abs ((Ode.Traj.last fluid).(0) -. e) < 0.05)

let test_ssa_boundaries_respected () =
  let m = Bikesharing.make p in
  let rng = Rng.create 21 in
  let policy =
    Policy.feedback "adversarial" (fun _t x ->
        (* drain when low, fill when high: stress the boundaries *)
        if x.(0) < 0.3 then [| 1.4; 0.9 |] else [| 0.8; 1.2 |])
  in
  let traj = Ssa.trajectory m ~n:20 ~x0:[| 0.5 |] ~policy ~tmax:50. rng in
  Array.iter
    (fun x ->
      Alcotest.(check bool) "occupancy in [0,1]" true
        (x.(0) >= -1e-9 && x.(0) <= 1. +. 1e-9))
    traj.Ode.Traj.states

let suites =
  [
    ( "bikesharing",
      [
        Alcotest.test_case "interior drift" `Quick test_drift_interior;
        Alcotest.test_case "boundary drift" `Quick test_drift_boundaries;
        Alcotest.test_case "ictmc structure" `Quick test_ictmc_structure;
        Alcotest.test_case "imprecise bounds bracket" `Quick test_ictmc_bounds_bracket_constant_theta;
        Alcotest.test_case "empty probability monotone" `Quick test_empty_probability_monotone_in_horizon;
        Alcotest.test_case "mean field vs chain" `Slow test_meanfield_matches_ictmc_large_capacity;
        Alcotest.test_case "ssa boundaries" `Quick test_ssa_boundaries_respected;
      ] );
  ]
