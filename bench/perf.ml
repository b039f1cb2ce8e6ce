(* Bechamel timing of each solver on its paper workload.  One
   Test.make per experiment kernel; estimates printed as ms/run via OLS
   on the monotonic clock. *)
open Umf
open Bechamel
open Toolkit

let p = Sir.default_params

let di = Sir.di p

let model = Sir.model p

let gps = Gps.default_params

let clip = Optim.Box.make [| 0.; 0. |] [| 1.; 1. |]

let tests =
  [
    Test.make ~name:"fig1:pontryagin-max-xI(3)"
      (Staged.stage (fun () ->
           Pontryagin.solve ~steps:300 di ~x0:Sir.x0 ~horizon:3. ~sense:`Max
             (`Coord 1)));
    Test.make ~name:"fig1:uncertain-envelope-21"
      (Staged.stage (fun () ->
           Uncertain.transient_envelope ~grid:21 di ~x0:Sir.x0
             ~times:[| 1.; 2.; 3.; 4. |]));
    Test.make ~name:"fig4:hull-T10"
      (Staged.stage (fun () ->
           Hull.bounds ~clip di ~x0:Sir.x0 ~horizon:10. ~dt:0.02));
    Test.make ~name:"fig3:birkhoff-centre"
      (Staged.stage (fun () -> Birkhoff.compute di ~x_start:Sir.x0));
    Test.make ~name:"fig6:ssa-N1000-T10"
      (Staged.stage
         (let rng = Rng.create 99 in
          fun () ->
            Ssa.final model ~n:1000 ~x0:Sir.x0 ~policy:(Sir.policy_theta1 p)
              ~tmax:10. rng));
    Test.make ~name:"fig7:pontryagin-gps-map"
      (Staged.stage (fun () ->
           Pontryagin.solve ~steps:250 (Gps.map_di gps) ~x0:Gps.x0_map
             ~horizon:2. ~sense:`Max (`Coord 0)));
    Test.make ~name:"kolm:lower-expectation-N20-T5"
      (Staged.stage
         (let m = Bikesharing.ictmc Bikesharing.default_params ~capacity:20 in
          let h = Bikesharing.occupancy_reward ~capacity:20 in
          fun () ->
            Ctmc.Imprecise.fixed_series ~sense:`Lower m ~h ~times:[| 5. |]));
    Test.make ~name:"substrate:rk45-sir"
      (Staged.stage (fun () ->
           Ode.integrate_adaptive
             ((Sir.di p).Di.drift |> fun f -> fun _t x -> f x [| 5. |])
             ~t0:0. ~y0:Sir.x0 ~t1:10.));
    Test.make ~name:"template:16-dir-sir-T2"
      (Staged.stage (fun () ->
           Template.compute ~steps:150 di ~x0:Sir.x0 ~horizon:2.
             ~directions:(Template.directions_2d 16)));
    Test.make ~name:"certified:interval-hull-cholera-T3"
      (Staged.stage
         (let s = Cholera.make Cholera.default_params in
          fun () ->
            Certified.hull_bounds ~clip:Cholera.state_clip s ~x0:Cholera.x0
              ~horizon:3. ~dt:0.01));
  ]

let run () =
  Common.banner "PERF: solver timings (Bechamel, OLS ms/run)";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None () in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"umf" ~fmt:"%s/%s" tests)
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) -> rows := (name, est /. 1e6) :: !rows
      | Some [] | None -> ())
    results;
  Common.header [ "kernel"; "ms/run" ];
  List.iter
    (fun (name, ms) -> Printf.printf "%s\t%.3f\n" name ms)
    (List.sort compare !rows)

(* RUNTIME: sequential vs pooled wall time of the three hot fan-out
   workloads, with a bit-identity check on each.  Speedup needs cores;
   on a 1-core box the interest is the (small) scheduling overhead. *)
let run_runtime () =
  Common.banner "RUNTIME: parallel engine, seq vs pool wall time";
  let pool, owned =
    match !Common.pool with
    | Some p -> (p, false)
    | None -> (Runtime.Pool.create (), true)
  in
  let times = [| 1.; 2.; 3.; 4. |] in
  (* reach's sequential lane uses a one-domain pool: with a pool the
     cloud comes from split RNG streams, so only pool-vs-pool runs are
     comparable bit-for-bit *)
  let pool1 = Runtime.Pool.create ~domains:1 () in
  let workloads =
    [
      ( "uncertain-sweep-21",
        (fun () ->
          `Env (Uncertain.transient_envelope ~grid:21 di ~x0:Sir.x0 ~times)),
        fun () ->
          `Env
            (Uncertain.transient_envelope ~pool ~grid:21 di ~x0:Sir.x0 ~times)
      );
      ( "reach-mc-cloud-400",
        (fun () ->
          `Cloud
            (Reach.sample_states ~pool:pool1 di ~x0:Sir.x0 ~horizon:3.
               ~n_controls:400 (Rng.create 5)
             |> Array.of_list)),
        fun () ->
          `Cloud
            (Reach.sample_states ~pool di ~x0:Sir.x0 ~horizon:3.
               ~n_controls:400 (Rng.create 5)
             |> Array.of_list) );
      ( "ssa-replicate-N500x40",
        (fun () ->
          `Cloud
            (Ssa.replicate model ~n:500 ~x0:Sir.x0
               ~policy:(Sir.policy_theta1 p) ~tmax:10. ~reps:40 ~seed:3)),
        fun () ->
          `Cloud
            (Ssa.replicate ~pool model ~n:500 ~x0:Sir.x0
               ~policy:(Sir.policy_theta1 p) ~tmax:10. ~reps:40 ~seed:3) );
    ]
  in
  Common.header [ "workload"; "seq_s"; "pool_s"; "speedup"; "identical" ];
  let json_rows =
    List.map
      (fun (name, seq, par) ->
        let r_seq, t_seq = Common.time_it seq in
        let r_par, t_par = Common.time_it par in
        let identical = r_seq = r_par in
        Printf.printf "%s\t%.3f\t%.3f\t%.2fx\t%b\n" name t_seq t_par
          (t_seq /. Float.max 1e-9 t_par)
          identical;
        Common.claim
          (Printf.sprintf "%s: pool output bit-identical" name)
          identical
          (Printf.sprintf "%d domains" (Runtime.Pool.size pool));
        Printf.sprintf
          "    {\"workload\": %S, \"seq_s\": %.6f, \"pool_s\": %.6f, \
           \"domains\": %d, \"identical\": %b}"
          name t_seq t_par (Runtime.Pool.size pool) identical)
      workloads
  in
  let oc = open_out "BENCH_runtime.json" in
  Printf.fprintf oc "{\n  \"domains\": %d,\n  \"rows\": [\n%s\n  ]\n}\n"
    (Runtime.Pool.size pool)
    (String.concat ",\n" json_rows);
  close_out oc;
  print_endline "wrote BENCH_runtime.json";
  Runtime.Pool.shutdown pool1;
  if owned then Runtime.Pool.shutdown pool
