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

let constant th = Policy.constant [| th |]

let test_final_in_simplex () =
  let m = bd_model () in
  let rng = Rng.create 1 in
  for _ = 1 to 20 do
    let x = Ssa.final m ~n:50 ~x0:[| 0.3 |] ~policy:(constant 1.) ~tmax:5. rng in
    Alcotest.(check bool) "in [0,1]" true (x.(0) >= 0. && x.(0) <= 1.)
  done

let test_counts_are_integral () =
  let m = bd_model () in
  let rng = Rng.create 2 in
  let n = 37 in
  let x = Ssa.final m ~n ~x0:[| 0.3 |] ~policy:(constant 1.) ~tmax:3. rng in
  let count = x.(0) *. float_of_int n in
  Alcotest.(check (float 1e-9)) "integral count" (Float.round count) count

let test_trajectory_consistency () =
  let m = bd_model () in
  let rng = Rng.create 3 in
  let traj = Ssa.trajectory m ~n:30 ~x0:[| 0.5 |] ~policy:(constant 1.) ~tmax:2. rng in
  Alcotest.(check (float 1e-12)) "starts at x0" 0.5 (Ode.Traj.first traj).(0);
  Alcotest.(check (float 1e-9)) "starts at 0" 0. (Ode.Traj.t0 traj);
  Alcotest.(check (float 1e-9)) "ends at tmax" 2. (Ode.Traj.t1 traj);
  (* consecutive states differ by exactly one jump of 1/n *)
  let states = traj.Ode.Traj.states in
  for i = 1 to Array.length states - 2 do
    let diff = Float.abs (states.(i).(0) -. states.(i - 1).(0)) in
    Alcotest.(check (float 1e-9)) "unit jump" (1. /. 30.) diff
  done

let test_sampled_matches_trajectory () =
  let m = bd_model () in
  let times = [| 0.; 0.5; 1.; 1.5; 2. |] in
  let t1 = Ssa.trajectory m ~n:40 ~x0:[| 0.5 |] ~policy:(constant 1.) ~tmax:2. (Rng.create 7) in
  let s = Ssa.sampled m ~n:40 ~x0:[| 0.5 |] ~policy:(constant 1.) ~times (Rng.create 7) in
  (* same seed => same path; sampled values must lie on the trajectory *)
  Array.iteri
    (fun i t ->
      (* piecewise-constant: the sampled state equals the trajectory
         state at the last event <= t; Traj.at interpolates linearly so
         compare only at event-free exact sample times via state jump
         bound 1/n *)
      let on_traj = Ode.Traj.at t1 t in
      Alcotest.(check bool)
        (Printf.sprintf "sample %d near path" i)
        true
        (Float.abs (on_traj.(0) -. s.(i).(0)) <= 1. /. 40. +. 1e-9))
    times

let test_sampled_validation () =
  let m = bd_model () in
  Alcotest.check_raises "times must increase"
    (Invalid_argument "Ssa.sampled: times not increasing") (fun () ->
      ignore
        (Ssa.sampled m ~n:10 ~x0:[| 0.5 |] ~policy:(constant 1.)
           ~times:[| 1.; 0.5 |] (Rng.create 1)))

let test_seed_determinism () =
  let m = bd_model () in
  let run seed =
    Ssa.final m ~n:50 ~x0:[| 0.5 |] ~policy:(constant 1.5) ~tmax:4. (Rng.create seed)
  in
  Alcotest.(check bool) "same seed same result" true
    (Vec.approx_equal (run 5) (run 5));
  Alcotest.(check bool) "different seeds differ" false
    (Vec.approx_equal (run 5) (run 6))

let test_event_count_scales_with_n () =
  let m = bd_model () in
  let count n = Ssa.count_events m ~n ~x0:[| 0.5 |] ~policy:(constant 1.) ~tmax:10. (Rng.create 11) in
  let c100 = count 100 and c1000 = count 1000 in
  let ratio = float_of_int c1000 /. float_of_int c100 in
  Alcotest.(check bool) "events scale ~linearly in N" true (ratio > 7. && ratio < 13.)

let test_policy_jump_channel_fires () =
  let m = bd_model () in
  let jumps = ref 0 in
  let policy =
    {
      Policy.name = "counting";
      instantiate =
        (fun () ->
          {
            Policy.theta = (fun _ _ -> [| 1. |]);
            jump_rate = (fun _ _ -> 50.);
            do_jump = (fun _ _ _ -> incr jumps);
            notify = (fun _ _ -> ());
          });
    }
  in
  let _ = Ssa.final m ~n:20 ~x0:[| 0.5 |] ~policy ~tmax:2. (Rng.create 13) in
  (* expect roughly rate * tmax = 100 policy jumps *)
  Alcotest.(check bool) "policy jumps fired" true (!jumps > 50 && !jumps < 160)

let test_negative_count_detected () =
  (* a deliberately broken model whose death rate does not vanish at 0 *)
  let bad =
    Model.make ~name:"bad" ~var_names:[| "X" |] ~theta_names:[||]
      ~theta:(Optim.Box.make [||] [||])
      ~x0:[| 0.4 |]
      [ { Model.name = "death"; change = [| -1. |]; rate = Expr.const 1. } ]
  in
  let policy = Policy.constant [||] in
  Alcotest.(check bool) "raises on negative count" true
    (try
       let _ = Ssa.final bad ~n:3 ~x0:[| 0.4 |] ~policy ~tmax:100. (Rng.create 1) in
       false
     with Failure _ -> true)

let test_time_average () =
  let m = bd_model () in
  (* stationary mean of x is theta/(1+theta) = 2/3 for theta = 2 *)
  let avg =
    Ssa.time_average m ~n:300 ~x0:[| 0.1 |] ~policy:(constant 2.) ~tmax:200.
      ~warmup:20. ~reward:(fun x -> x.(0)) (Rng.create 17)
  in
  Alcotest.(check bool) "near fluid equilibrium" true (Float.abs (avg -. (2. /. 3.)) < 0.03)

let suites =
  [
    ( "ssa",
      [
        Alcotest.test_case "states stay in simplex" `Quick test_final_in_simplex;
        Alcotest.test_case "counts integral" `Quick test_counts_are_integral;
        Alcotest.test_case "trajectory consistency" `Quick test_trajectory_consistency;
        Alcotest.test_case "sampled matches trajectory" `Quick test_sampled_matches_trajectory;
        Alcotest.test_case "sampled validation" `Quick test_sampled_validation;
        Alcotest.test_case "seed determinism" `Quick test_seed_determinism;
        Alcotest.test_case "event count scaling" `Slow test_event_count_scales_with_n;
        Alcotest.test_case "policy jump channel" `Quick test_policy_jump_channel_fires;
        Alcotest.test_case "negative count detection" `Quick test_negative_count_detected;
        Alcotest.test_case "stationary time average" `Slow test_time_average;
      ] );
  ]
