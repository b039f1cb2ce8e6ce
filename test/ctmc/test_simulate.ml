open Umf_numerics
open Umf_ctmc

(* 0 <-> 1 with rates 2 and 3: stationary distribution (0.6, 0.4) *)
let two_state () = Generator.make ~n:2 [ (0, 1, 2.); (1, 0, 3.) ]

let test_path_wellformed () =
  let rng = Rng.create 1 in
  let p = Simulate.run rng (two_state ()) ~x0:0 ~tmax:10. in
  Alcotest.(check int) "starts at x0" 0 (Path.state_at p 0.);
  Alcotest.(check bool) "has jumps" true (Path.jumps p > 0);
  (* successive states alternate in a two-state chain *)
  let ok = ref true in
  for i = 1 to Path.length p - 1 do
    if p.Path.states.(i) = p.Path.states.(i - 1) then ok := false
  done;
  Alcotest.(check bool) "no self transitions" true !ok

let test_occupancy_matches_stationary () =
  let rng = Rng.create 2 in
  let p = Simulate.run rng (two_state ()) ~x0:0 ~tmax:5000. in
  let occ = Path.occupancy p 2 in
  Alcotest.(check bool) "near 0.6" true (Float.abs (occ.(0) -. 0.6) < 0.03);
  Alcotest.(check bool) "near 0.4" true (Float.abs (occ.(1) -. 0.4) < 0.03)

let test_absorbing () =
  (* 0 -> 1, 1 absorbing *)
  let g = Generator.make ~n:2 [ (0, 1, 5.) ] in
  let rng = Rng.create 3 in
  let p = Simulate.run rng g ~x0:0 ~tmax:100. in
  Alcotest.(check int) "absorbed in 1" 1 (Path.final_state p);
  Alcotest.(check int) "exactly one jump" 1 (Path.jumps p);
  Alcotest.(check (float 1e-12)) "horizon kept" 100. p.Path.horizon

let test_jump_count_scaling () =
  (* Poisson-like: expected number of jumps ~ rate * t in a cyclic chain *)
  let g = Generator.make ~n:3 [ (0, 1, 10.); (1, 2, 10.); (2, 0, 10.) ] in
  let rng = Rng.create 4 in
  let p = Simulate.run rng g ~x0:0 ~tmax:100. in
  let expected = 1000. in
  Alcotest.(check bool) "jump count near rate*t" true
    (Float.abs (float_of_int (Path.jumps p) -. expected) < 150.)

let test_deterministic_given_seed () =
  let p1 = Simulate.run (Rng.create 42) (two_state ()) ~x0:0 ~tmax:5. in
  let p2 = Simulate.run (Rng.create 42) (two_state ()) ~x0:0 ~tmax:5. in
  Alcotest.(check bool) "same path" true
    (p1.Path.times = p2.Path.times && p1.Path.states = p2.Path.states)

let test_mean_reward () =
  let rng = Rng.create 5 in
  let mean, se =
    Simulate.mean_reward rng (two_state ()) ~x0:0 ~tmax:20. ~runs:400
      (fun s -> if s = 0 then 1. else 0.)
  in
  Alcotest.(check bool) "mean near stationary 0.6" true
    (Float.abs (mean -. 0.6) < 0.08);
  Alcotest.(check bool) "positive standard error" true (se > 0.)

let test_time_varying_generator () =
  (* imprecise-style simulation: rate 0 until t = 5, then fast switch *)
  let slow = Generator.make ~n:2 [ (0, 1, 0.001) ] in
  let fast = Generator.make ~n:2 [ (0, 1, 1000.); (1, 0, 1000.) ] in
  let rng = Rng.create 6 in
  let p =
    Simulate.run_imprecise ~rate_bound:1000. rng
      (fun ~t ~x:_ -> if t < 5. then slow else fast)
      ~x0:0 ~tmax:10.
  in
  (* almost surely no jump before t = 5, many after *)
  Alcotest.(check bool) "jumps mostly after switch" true (Path.jumps p > 100)

(* Lewis/Ogata thinning at a constant bound: the path is a sample of the
   same chain, so its occupancy approaches the stationary law *)
let test_thinned_occupancy () =
  let p =
    Simulate.run_imprecise ~rate_bound:5. (Rng.create 7)
      (fun ~t:_ ~x:_ -> two_state ())
      ~x0:0 ~tmax:5000.
  in
  let occ = Path.occupancy p 2 in
  Alcotest.(check bool) "near 0.6" true (Float.abs (occ.(0) -. 0.6) < 0.03);
  Alcotest.(check bool) "near 0.4" true (Float.abs (occ.(1) -. 0.4) < 0.03)

let test_thinning_bound_checked () =
  let gen ~t:_ ~x:_ = two_state () in
  Alcotest.check_raises "an exit rate over the bound"
    (Invalid_argument "Simulate: rate_bound exceeded") (fun () ->
      ignore
        (Simulate.run_imprecise ~rate_bound:2.5 (Rng.create 8) gen ~x0:0
           ~tmax:10.));
  Alcotest.check_raises "a non-positive bound"
    (Invalid_argument "Simulate: rate_bound <= 0") (fun () ->
      ignore
        (Simulate.run_imprecise ~rate_bound:0. (Rng.create 8) gen ~x0:0
           ~tmax:1.))

(* without a bound the generator is frozen between jumps: a constant one
   draws exactly the path [run] draws from the same seed *)
let test_frozen_constant_is_run () =
  let g =
    Generator.make ~n:3 [ (0, 1, 2.); (1, 2, 1.5); (2, 0, 0.5); (1, 0, 1.) ]
  in
  let a = Simulate.run (Rng.create 9) g ~x0:0 ~tmax:20. in
  let b =
    Simulate.run_imprecise (Rng.create 9) (fun ~t:_ ~x:_ -> g) ~x0:0 ~tmax:20.
  in
  Alcotest.(check bool) "same jumps" true
    (Path.jumps a > 0 && Path.jumps a = Path.jumps b);
  Alcotest.(check bool) "same path" true
    (a.Path.times = b.Path.times && a.Path.states = b.Path.states)

let suites =
  [
    ( "simulate",
      [
        Alcotest.test_case "well-formed paths" `Quick test_path_wellformed;
        Alcotest.test_case "occupancy vs stationary" `Slow test_occupancy_matches_stationary;
        Alcotest.test_case "absorbing state" `Quick test_absorbing;
        Alcotest.test_case "jump count scaling" `Quick test_jump_count_scaling;
        Alcotest.test_case "seed determinism" `Quick test_deterministic_given_seed;
        Alcotest.test_case "mean reward" `Slow test_mean_reward;
        Alcotest.test_case "time-varying generator" `Quick test_time_varying_generator;
        Alcotest.test_case "thinned occupancy vs stationary" `Quick
          test_thinned_occupancy;
        Alcotest.test_case "thinning bound checked" `Quick
          test_thinning_bound_checked;
        Alcotest.test_case "frozen constant generator = run" `Quick
          test_frozen_constant_is_run;
      ] );
  ]
