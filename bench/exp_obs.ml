(* OBS: observability overhead and per-solver metric breakdowns.

   Each solver workload runs twice — obs off, then obs on with an
   in-memory registry — asserting bit-identical results either way.
   The registry rows become the per-solver breakdown written to
   BENCH_obs.json; the off/on wall times bound the probe overhead
   (the acceptance budget is < 2% with obs off). *)
open Umf

let p = Sir.default_params

let di = Sir.di p

let model = Sir.make p

let clip = Optim.Box.make [| 0.; 0. |] [| 1.; 1. |]

let json_of_agg agg =
  let spans =
    List.map
      (fun (name, st) ->
        ( name,
          Obs.Json.Obj
            [
              ("calls", Obs.Json.Num (float_of_int st.Obs.Agg.calls));
              ("total_s", Obs.Json.Num st.Obs.Agg.total);
              ("max_s", Obs.Json.Num st.Obs.Agg.max);
            ] ))
      (Obs.Agg.span_stats agg)
  in
  let counters =
    List.map (fun (name, v) -> (name, Obs.Json.Num v)) (Obs.Agg.counters agg)
  in
  Obs.Json.Obj
    [ ("spans", Obs.Json.Obj spans); ("counters", Obs.Json.Obj counters) ]

let run () =
  Common.banner "OBS: probe overhead (off vs on) and per-solver metrics";
  let reps = 5 in
  let workloads =
    [
      ( "pontryagin",
        fun obs ->
          `P
            (Pontryagin.solve ~steps:300 ~obs di ~x0:Sir.x0 ~horizon:3.
               ~sense:`Max (`Coord 1)) );
      ( "hull",
        fun obs ->
          `H (Hull.bounds ~clip ~obs di ~x0:Sir.x0 ~horizon:10. ~dt:0.02) );
      ("birkhoff", fun obs -> `B (Birkhoff.compute ~obs di ~x_start:Sir.x0));
      ( "ode",
        fun obs ->
          `O
            (Ode.integrate_adaptive ~obs
               ((Sir.di p).Di.drift |> fun f -> fun _t x -> f x [| 5. |])
               ~t0:0. ~y0:Sir.x0 ~t1:10.) );
      ( "ssa",
        fun obs ->
          `S
            (Ssa.replicate ~obs model ~n:500 ~x0:Sir.x0
               ~policy:(Sir.policy_theta1 p) ~tmax:10. ~reps:20 ~seed:3) );
      ( "uncertain",
        fun obs ->
          `U
            (Uncertain.transient_envelope ~obs ~grid:11 di ~x0:Sir.x0
               ~times:[| 1.; 2.; 3. |]) );
    ]
  in
  Common.header [ "solver"; "off_s"; "on_s"; "overhead"; "identical" ];
  let rows =
    List.map
      (fun (name, f) ->
        let repeat obs () =
          let r = ref (f obs) in
          for _ = 2 to reps do
            r := f obs
          done;
          !r
        in
        let r_off, t_off = Common.time_it (repeat Obs.off) in
        let agg = Obs.Agg.create () in
        let r_on, t_on = Common.time_it (repeat (Obs.make ~agg ())) in
        let identical = r_off = r_on in
        let overhead = (t_on -. t_off) /. Float.max 1e-9 t_off in
        Printf.printf "%s\t%.4f\t%.4f\t%+.1f%%\t%b\n" name t_off t_on
          (100. *. overhead) identical;
        Common.claim
          (Printf.sprintf "%s: obs on/off bit-identical" name)
          identical
          (Printf.sprintf "%d reps" reps);
        ( name,
          Obs.Json.Obj
            [
              ("off_s", Obs.Json.Num t_off);
              ("on_s", Obs.Json.Num t_on);
              ("overhead", Obs.Json.Num overhead);
              ("identical", Obs.Json.Bool identical);
              ("metrics", json_of_agg agg);
            ] ))
      workloads
  in
  let oc = open_out "BENCH_obs.json" in
  output_string oc
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("reps", Obs.Json.Num (float_of_int reps));
            ("solvers", Obs.Json.Obj rows);
          ]));
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_obs.json"
