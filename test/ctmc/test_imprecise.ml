open Umf_numerics
open Umf_ctmc

(* single-station bike sharing chain (paper Sec. II example):
   states 0..cap bikes; arrivals take a bike at rate θa, returns add one
   at rate θr.  Each edge is (src, dst, the θ coordinate that is its
   rate): the imprecise chain stores those rates at the box's vertices,
   and [bike_generator] assembles the precise chain at any θ. *)
let bike_edges ~cap =
  List.concat
    (List.init (cap + 1) (fun k ->
         (if k > 0 then [ (k, k - 1, 0) ] else [])
         @ if k < cap then [ (k, k + 1, 1) ] else []))

let bike_station ~cap ~theta_box =
  let vertices = Optim.Box.vertices theta_box in
  Imprecise_ctmc.make ~n:(cap + 1) ~theta:theta_box
    (List.map
       (fun (src, dst, j) ->
         {
           Imprecise_ctmc.src;
           dst;
           rates = Array.of_list (List.map (fun th -> th.(j)) vertices);
         })
       (bike_edges ~cap))

let bike_generator ~cap theta =
  Generator.make ~n:(cap + 1)
    (List.map (fun (src, dst, j) -> (src, dst, theta.(j))) (bike_edges ~cap))

let box2 a b c d = Optim.Box.make [| a; c |] [| b; d |]

(* the fixed-grid backward sweep's value vector at one horizon *)
let expectation ?steps_per_unit sense m ~h ~horizon =
  (Imprecise_ctmc.fixed_series ?steps_per_unit ~sense m ~h
     ~times:[| horizon |]).values.(0)

let lower ?steps_per_unit m = expectation ?steps_per_unit `Lower m
let upper ?steps_per_unit m = expectation ?steps_per_unit `Upper m

let test_vertex_rates () =
  (* vertices of [1,2] x [1,3] in Box.vertices order: (1,1) (1,3) (2,1)
     (2,3); each transition keeps its rate at every one *)
  let m = bike_station ~cap:3 ~theta_box:(box2 1. 2. 1. 3.) in
  let out_of x =
    List.filter (fun tr -> tr.Imprecise_ctmc.src = x) (Imprecise_ctmc.transitions m)
    |> List.map (fun tr -> (tr.Imprecise_ctmc.dst, tr.Imprecise_ctmc.rates))
  in
  Alcotest.(check (list (pair int (array (float 0.)))))
    "interior state: departure then return"
    [ (0, [| 1.; 1.; 2.; 2. |]); (2, [| 1.; 3.; 1.; 3. |]) ]
    (out_of 1);
  Alcotest.(check (list (pair int (array (float 0.)))))
    "boundary state: no departures at 0"
    [ (1, [| 1.; 3.; 1.; 3. |]) ]
    (out_of 0);
  Alcotest.(check (float 0.)) "exit bound at the (2,3) vertex" 5.
    (Imprecise_ctmc.max_exit_bound m)

let test_degenerate_box_matches_precise () =
  (* point box: lower = upper = exact transient expectation *)
  let theta = [| 1.2; 0.8 |] in
  let m = bike_station ~cap:4 ~theta_box:(box2 1.2 1.2 0.8 0.8) in
  let g = bike_generator ~cap:4 theta in
  let h = Array.init 5 float_of_int in
  let lo = lower ~steps_per_unit:2000 m ~h ~horizon:1. in
  let hi = upper ~steps_per_unit:2000 m ~h ~horizon:1. in
  let p0 = [| 0.; 0.; 1.; 0.; 0. |] in
  let exact = Vec.dot (fst (Transient.uniformization g ~p0 ~t:1.)) h in
  Alcotest.(check (float 1e-3)) "lower = precise" exact lo.(2);
  Alcotest.(check (float 1e-3)) "upper = precise" exact hi.(2);
  Alcotest.(check bool) "lower <= upper" true (lo.(2) <= hi.(2) +. 1e-9)

let test_bounds_order_and_nesting () =
  let narrow = bike_station ~cap:4 ~theta_box:(box2 1. 1.5 1. 1.5) in
  let wide = bike_station ~cap:4 ~theta_box:(box2 0.5 2. 0.5 2.) in
  let h = Array.init 5 float_of_int in
  let lo_n = lower narrow ~h ~horizon:2. in
  let hi_n = upper narrow ~h ~horizon:2. in
  let lo_w = lower wide ~h ~horizon:2. in
  let hi_w = upper wide ~h ~horizon:2. in
  for x = 0 to 4 do
    Alcotest.(check bool) "lower <= upper" true (lo_n.(x) <= hi_n.(x) +. 1e-9);
    Alcotest.(check bool) "wider box gives wider bounds (lo)" true
      (lo_w.(x) <= lo_n.(x) +. 1e-6);
    Alcotest.(check bool) "wider box gives wider bounds (hi)" true
      (hi_w.(x) >= hi_n.(x) -. 1e-6)
  done

let test_horizon_zero_is_reward () =
  let m = bike_station ~cap:3 ~theta_box:(box2 1. 2. 1. 2.) in
  let h = [| 5.; 1.; 0.; 2. |] in
  let lo = lower m ~h ~horizon:0. in
  Alcotest.(check bool) "g_0 = h" true (Vec.approx_equal lo h)

let test_probability_bounds () =
  (* P(X_1 = 0 | X_0 = 2): the sweeps on the indicator of state 0 *)
  let m = bike_station ~cap:3 ~theta_box:(box2 1. 3. 1. 3.) in
  let h = [| 1.; 0.; 0.; 0. |] in
  let lo = (lower m ~h ~horizon:1.).(2) and hi = (upper m ~h ~horizon:1.).(2) in
  Alcotest.(check bool) "probabilities in [0,1]" true
    (lo >= -1e-9 && hi <= 1. +. 1e-9 && lo <= hi)

let test_simulation_within_bounds () =
  (* Monte-Carlo mean under any adapted policy must lie within the
     lower/upper expectation bounds *)
  let box = box2 1. 3. 1. 3. in
  let m = bike_station ~cap:5 ~theta_box:box in
  let h = Array.init 6 float_of_int in
  let horizon = 2. in
  let lo = lower m ~h ~horizon in
  let hi = upper m ~h ~horizon in
  let policies =
    [
      ("constant mid", fun ~t:_ ~x:_ -> [| 2.; 2. |]);
      ("time switch", fun ~t ~x:_ -> if t < 1. then [| 1.; 3. |] else [| 3.; 1. |]);
      ("state feedback", fun ~t:_ ~x -> if x > 2 then [| 3.; 1. |] else [| 1.; 3. |]);
    ]
  in
  List.iter
    (fun (name, policy) ->
      let rng = Rng.create 77 in
      let acc = Stats.Running.create () in
      for _ = 1 to 600 do
        (* exact thinning at the chain's exit bound, the generator
           rebuilt at the policy's θ *)
        let p =
          Simulate.run_imprecise
            ~rate_bound:(Imprecise_ctmc.max_exit_bound m *. 1.000001)
            rng
            (fun ~t ~x -> bike_generator ~cap:5 (Optim.Box.clamp box (policy ~t ~x)))
            ~x0:3 ~tmax:horizon
        in
        Stats.Running.add acc h.(Path.final_state p)
      done;
      let mean = Stats.Running.mean acc in
      let se = Stats.Running.std acc /. sqrt 600. in
      let margin = (4. *. se) +. 0.02 in
      Alcotest.(check bool)
        (name ^ " above lower") true
        (mean >= lo.(3) -. margin);
      Alcotest.(check bool)
        (name ^ " below upper") true
        (mean <= hi.(3) +. margin))
    policies

let test_coarse_grid_auto_refined () =
  (* regression for the unstable backward sweep: steps_per_unit:1 gives
     dt·λ = 6 — the old explicit Euler diverged (values far outside
     [min h, max h]); the stability guard now refines the grid and the
     envelope invariant holds *)
  let m = bike_station ~cap:4 ~theta_box:(box2 1. 3. 1. 3.) in
  let h = Array.init 5 float_of_int in
  let lo = lower ~steps_per_unit:1 m ~h ~horizon:2. in
  let hi = upper ~steps_per_unit:1 m ~h ~horizon:2. in
  for x = 0 to 4 do
    Alcotest.(check bool) "lower in [min h, max h]" true
      (lo.(x) >= 0. && lo.(x) <= 4.);
    Alcotest.(check bool) "upper in [min h, max h]" true
      (hi.(x) >= 0. && hi.(x) <= 4.);
    Alcotest.(check bool) "lower <= upper" true (lo.(x) <= hi.(x) +. 1e-9)
  done;
  (* and the refined coarse grid still lands near the accurate sweep
     (first-order Euler at dt·λ = 1, so only O(dt) accuracy) *)
  let ref_lo = lower ~steps_per_unit:2000 m ~h ~horizon:2. in
  Alcotest.(check bool) "coarse refined close to accurate" true
    (Vec.dist_inf lo ref_lo < 0.2)

let test_series_snapshots () =
  (* one sweep serves every time point: each snapshot stays ordered *)
  let m = bike_station ~cap:4 ~theta_box:(box2 1. 2. 1. 3.) in
  let h = Array.init 5 float_of_int in
  let times = [| 0.5; 1.; 2. |] in
  let series sense = Imprecise_ctmc.fixed_series ~sense m ~h ~times in
  let los = series `Lower and his = series `Upper in
  Array.iteri
    (fun j _ ->
      for x = 0 to 4 do
        Alcotest.(check bool) "lo <= hi" true
          (los.values.(j).(x) <= his.values.(j).(x) +. 1e-9)
      done)
    times;
  Alcotest.check_raises "times must increase"
    (Invalid_argument "Imprecise_ctmc: times not increasing") (fun () ->
      ignore
        (Imprecise_ctmc.fixed_series ~sense:`Lower m ~h ~times:[| 1.; 0.5 |]))

let test_series_matches_single_horizon () =
  (* each snapshot of a multi-time sweep agrees with a sweep run to that
     horizon alone: bitwise on the first segment (the same grid), and
     within the two certified error budgets after it (the segmented
     grid differs from the single one) *)
  let m = bike_station ~cap:4 ~theta_box:(box2 1. 2. 1. 3.) in
  let h = Array.init 5 float_of_int in
  let times = [| 0.5; 1.; 2. |] in
  List.iter
    (fun sense ->
      let series = Imprecise_ctmc.fixed_series ~sense m ~h ~times in
      Array.iteri
        (fun j t ->
          let single =
            Imprecise_ctmc.fixed_series ~sense m ~h ~times:[| t |]
          in
          let budget =
            series.eps.(j) +. series.rounding.(j) +. single.eps.(0)
            +. single.rounding.(0)
          in
          if j = 0 then
            Alcotest.(check bool) "first snapshot = single horizon" true
              (Vec.approx_equal ~tol:0. series.values.(0) single.values.(0));
          Alcotest.(check bool)
            (Printf.sprintf "snapshot within budget of single horizon at t=%g"
               t)
            true
            (Vec.dist_inf series.values.(j) single.values.(0) <= budget))
        times)
    [ `Lower; `Upper ]

let test_bad_rates_refused () =
  (* the sweep's convex-combination bound needs rates >= 0 on Θ: a
     negative or NaN vertex rate is refused when the chain is built *)
  let box = Optim.Box.make [| -1. |] [| 1. |] in
  let chain rates =
    Imprecise_ctmc.make ~n:2 ~theta:box [ { Imprecise_ctmc.src = 0; dst = 1; rates } ]
  in
  Alcotest.check_raises "negative rate"
    (Invalid_argument
       "Imprecise_ctmc.make: transition 0 -> 1 has rate -1 at theta vertex 0")
    (fun () -> ignore (chain [| -1.; 1. |]));
  Alcotest.check_raises "NaN rate"
    (Invalid_argument
       "Imprecise_ctmc.make: transition 0 -> 1 has rate nan at theta vertex 1")
    (fun () -> ignore (chain [| 1.; Float.nan |]));
  Alcotest.check_raises "one rate per vertex"
    (Invalid_argument
       "Imprecise_ctmc.make: transition 0 -> 1 has 1 rates for 2 theta vertices")
    (fun () -> ignore (chain [| 1. |]))

let suites =
  [
    ( "imprecise_ctmc",
      [
        Alcotest.test_case "vertex rates" `Quick test_vertex_rates;
        Alcotest.test_case "degenerate box = precise" `Quick test_degenerate_box_matches_precise;
        Alcotest.test_case "bound ordering and nesting" `Quick test_bounds_order_and_nesting;
        Alcotest.test_case "zero horizon" `Quick test_horizon_zero_is_reward;
        Alcotest.test_case "probability bounds" `Quick test_probability_bounds;
        Alcotest.test_case "simulations within bounds" `Slow test_simulation_within_bounds;
        Alcotest.test_case "coarse grid auto-refined" `Quick
          test_coarse_grid_auto_refined;
        Alcotest.test_case "series matches single horizon" `Quick
          test_series_matches_single_horizon;
        Alcotest.test_case "negative rate detection" `Quick test_bad_rates_refused;
        Alcotest.test_case "series snapshots" `Quick test_series_snapshots;
      ] );
  ]
