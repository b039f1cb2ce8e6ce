(* Command-line front end: analyse the bundled models without writing
   OCaml.

     umf_cli list
     umf_cli models
     umf_cli bounds --model sir --var I --horizon 4 --points 20
     umf_cli bounds --model sir --var I --scenario uncertain --jobs 4
     umf_cli bounds --model sir --var I --scenario pw:3
     umf_cli hull --model sir --horizon 10
     umf_cli steady --model sir
     umf_cli simulate --model sir -n 1000 --horizon 20 --policy theta1
     umf_cli simulate --model sir -n 1000 --reps 50 --jobs 0
     umf_cli ctmc transient --model sir -n 200 --horizon 5
     umf_cli ctmc stationary --model sir -n 100 --theta hi
     umf_cli ctmc bounds --model sir -n 100 --var I --scenario imprecise
     umf_cli ctmc bounds --model sir -n 100 --var I --scenario imprecise \
       --epsilon 1e-3 --metrics
     umf_cli ctmc bounds --model sir -n 2000 --var I --max-states 50000 \
       --truncation adaptive
     umf_cli ctmc first-passage --model sir -n 50 --var I --above 0.4 \
       --horizon 8 --epsilon 1e-3 --metrics
     umf_cli lint sir --tape
     umf_cli lint --all --tape --strict --json

   lint exit codes are part of the interface: 0 = clean, 1 = --strict
   with Warning-level findings, 2 = Error-level findings.  Model names
   parse through one shared cmdliner converter backed by
   {!Registry.find}, so every subcommand rejects an unknown model with
   the catalogue and a nearest-name suggestion.

   Every command pulls its model from {!Umf.Registry} — the CLI holds
   no model definitions of its own — and every analysis command runs
   through {!Umf.Codec}, the op layer umf_serve serves, so a CLI run
   and the equivalent served request print the same numbers.

   --jobs (or UMF_JOBS) only changes wall-clock time, never results:
   parallel sweeps use per-task RNG streams split deterministically
   from the seed.

   The analysis commands accept --trace FILE (NDJSON stream of solver
   spans/counters/gauges) and --metrics (aggregate summary on stderr).
   Neither changes results; a run whose iterative solver failed to
   converge exits non-zero either way, reporting the iteration count
   from the same metrics. *)
open Umf
open Cmdliner

(* Models parse at the command line, not inside run bodies: every
   subcommand taking a model shares this converter, so an unknown name
   fails fast with the registry catalogue and a nearest-name suggestion
   (from {!Registry.find}) before any work starts. *)
let model_conv =
  let print fmt m = Format.pp_print_string fmt (Model.name m) in
  Arg.conv ~docv:"MODEL" (Registry.find, print)

let var_index m name =
  let names = Model.var_names m in
  match Array.find_index (String.equal name) names with
  | Some i -> Ok i
  | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown variable %s (model has: %s)" name
             (String.concat ", " (Array.to_list names))))

let parse_scenario = function
  | "imprecise" -> Ok Analysis.Imprecise
  | "uncertain" -> Ok (Analysis.Uncertain 5)
  | s when String.length s > 3 && String.sub s 0 3 = "pw:" -> (
      match int_of_string_opt (String.sub s 3 (String.length s - 3)) with
      | Some k when k >= 1 -> Ok (Analysis.Piecewise k)
      | _ -> Error (`Msg "pw:<k> needs a positive integer"))
  | s -> Error (`Msg (Printf.sprintf "unknown scenario %s" s))

(* common args *)
let model_arg =
  Arg.(
    required
    & opt (some model_conv) None
    & info [ "m"; "model" ] ~docv:"MODEL"
        ~doc:
          "Model name (see `models').  Unknown names list the catalogue \
           and suggest the nearest registered model.")

let n_arg default =
  Arg.(value & opt int default & info [ "n"; "size" ] ~docv:"N" ~doc:"Population size.")

let horizon_arg default =
  Arg.(value & opt float default & info [ "horizon" ] ~docv:"T" ~doc:"Time horizon.")

(* parallel execution: 1 = sequential (default), 0 = one worker domain
   per core, N > 1 = N worker domains.  Results are bit-identical for
   any value, so --jobs is purely a wall-clock knob. *)
let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ]
        ~env:(Cmd.Env.info "UMF_JOBS")
        ~docv:"JOBS"
        ~doc:
          "Worker domains for parallel sweeps: 1 runs sequentially \
           (default), 0 picks one per core, $(docv) uses that many \
           domains.  Output is bit-identical for any value.")

(* observability: --trace streams NDJSON solver events, --metrics prints
   an aggregate summary.  Every analysis run keeps an in-memory registry
   regardless, so non-convergence is detected (and turned into a
   non-zero exit) from the solver counters. *)
let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Stream solver spans, counters and gauges to $(docv) as \
           NDJSON, one event object per line.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print a per-span/counter/gauge summary to stderr after the run.")

let print_metrics agg =
  Printf.eprintf "# metrics\n";
  List.iter
    (fun (name, st) ->
      Printf.eprintf "# span  %-28s calls=%-6d total=%.6fs max=%.6fs\n" name
        st.Obs.Agg.calls st.Obs.Agg.total st.Obs.Agg.max)
    (Obs.Agg.span_stats agg);
  List.iter
    (fun (name, v) -> Printf.eprintf "# count %-28s %.0f\n" name v)
    (Obs.Agg.counters agg);
  List.iter
    (fun (name, g) ->
      Printf.eprintf "# gauge %-28s last=%g min=%g max=%g\n" name
        g.Obs.Agg.last g.Obs.Agg.g_min g.Obs.Agg.g_max)
    (Obs.Agg.gauges agg)

(* the solvers report failed fixpoints through dedicated counters *)
let check_converged agg =
  let n = Obs.Agg.counter agg in
  if n "pontryagin.nonconverged" > 0. then
    Error
      (`Msg
        (Printf.sprintf "Pontryagin fixpoint did not converge (%.0f sweeps)"
           (n "pontryagin.sweeps")))
  else if n "birkhoff.nonconverged" > 0. then
    Error
      (`Msg
        (Printf.sprintf "Birkhoff iteration did not converge (%.0f rounds)"
           (n "birkhoff.iterations")))
  else Ok ()

let exit_of_result = function
  | Ok () -> ()
  | Error (`Msg m) ->
      Printf.eprintf "error: %s\n" m;
      exit 1

(* list command *)
let list_cmd =
  let doc = "List the bundled models, their variables and policies." in
  let run () =
    List.iter
      (fun (name, m) ->
        Printf.printf "%-12s vars: %s; theta: %s; policies: %s\n" name
          (String.concat ", " (Array.to_list (Model.var_names m)))
          (String.concat ", " (Array.to_list (Model.theta_names m)))
          (match Model.policies m with
          | [] -> "(constant/feedback only)"
          | ps -> String.concat ", " (List.map fst ps)))
      (Registry.all ())
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* models command *)
let models_cmd =
  let doc =
    "Inventory of the registered models: dimension, parameter-box \
     vertex count, structure flags and lint status."
  in
  let run () =
    Printf.printf "%-12s %4s %6s %9s %7s %11s %s\n" "name" "dim" "|theta|"
      "vertices" "affine" "multilinear" "lint";
    List.iter
      (fun (name, m) ->
        let report = Lint.analyze m in
        Printf.printf "%-12s %4d %6d %9d %7b %11b %s\n" name (Model.dim m)
          (Model.theta_dim m)
          (1 lsl Model.theta_dim m)
          (Model.affine_in_theta m) (Model.multilinear m)
          (if Lint.ok report then "ok" else "errors"))
      (Registry.all ())
  in
  Cmd.v (Cmd.info "models" ~doc) Term.(const run $ const ())

(* Every analysis subcommand is the same pipeline: its flags become one
   Codec request, that request runs through exactly one Codec.eval —
   the op layer umf_serve calls too — and Codec.render prints the
   answer: the stdout table, plus the ledger lines under --metrics. *)
let request m op =
  {
    Codec.id = Obs.Json.Null;
    model = Model.name m;
    scenario = Analysis.Imprecise;
    theta = None;
    horizon = None;
    steps = None;
    dt = None;
    tol = None;
    op;
    deadline_ms = None;
    cache = false;
  }

let analyse ~jobs ~trace ~metrics m req =
  let agg = Obs.Agg.create () in
  (* the trace sink owns its channel: closing it flushes the tail even
     when the run raises, so killed-mid-run traces stay complete up to
     the last emitted event *)
  let tr = Option.map Obs.Trace.to_file trace in
  let obs = Obs.make ~agg ?trace:tr () in
  let pool =
    if jobs < 0 || jobs = 1 then None
    else
      Some
        (Runtime.Pool.create ~obs
           ?domains:(if jobs = 0 then None else Some jobs)
           ())
  in
  let run () =
    if jobs < 0 then Error (`Msg "--jobs must be >= 0")
    else
      match
        let resolve _ = Ok m in
        let spec = Codec.spec_of_request ~resolve ?pool ~obs req in
        let result, cert = Codec.eval spec req.Codec.op in
        Codec.render spec req.Codec.op result (Codec.json_of_cert cert)
      with
      | out, certs ->
          print_string out;
          if metrics then prerr_string certs;
          Ok ()
      | exception Codec.Bad_request m -> Error (`Msg m)
  in
  match
    Fun.protect run ~finally:(fun () ->
        Option.iter Runtime.Pool.shutdown pool;
        Option.iter Obs.Trace.close tr)
  with
  | Error _ as e -> e
  | Ok () ->
      if metrics then print_metrics agg;
      check_converged agg

let ( let* ) = Result.bind

let epsilon_ok = function
  | Some e when e <= 0. -> Error (`Msg "--epsilon must be > 0")
  | _ -> Ok ()

(* bounds command *)
let bounds_cmd =
  let doc = "Reachability envelope of one variable over time." in
  let var_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "var" ] ~docv:"VAR" ~doc:"Variable name.")
  in
  let scenario_arg =
    Arg.(
      value & opt string "imprecise"
      & info [ "scenario" ] ~docv:"S"
          ~doc:"imprecise | uncertain | pw:<k> (piecewise-constant).")
  in
  let points_arg =
    Arg.(value & opt int 11 & info [ "points" ] ~docv:"N" ~doc:"Sample times.")
  in
  let steps_arg =
    Arg.(value & opt int 300 & info [ "steps" ] ~docv:"K" ~doc:"Pontryagin grid.")
  in
  let epsilon_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "epsilon" ] ~docv:"EPS"
          ~doc:
            "Target certified error: refine the solver grids until the \
             discretisation line of the result's ledger is at most \
             $(docv), and set the optimiser tolerance to $(docv).  The \
             itemised budget prints with $(b,--metrics).")
  in
  let run m var scenario horizon points steps epsilon jobs trace metrics =
    exit_of_result
      (let* coord = var_index m var in
       let* scenario = parse_scenario scenario in
       let* () = epsilon_ok epsilon in
       if points < 2 then Error (`Msg "need at least 2 points")
       else
         let steps, dt, tol =
           match epsilon with
           | Some e ->
               ( Int.max steps (int_of_float (Float.ceil (horizon /. e))),
                 Float.min 1e-2 e,
                 e )
           | None -> (steps, 1e-2, 1e-4)
         in
         let times = Some (Vec.linspace 0. horizon points) in
         analyse ~jobs ~trace ~metrics m
           { (request m (Codec.Bounds { x0 = None; coord; times })) with
             scenario; horizon = Some horizon; steps = Some steps;
             dt = Some dt; tol = Some tol })
  in
  Cmd.v (Cmd.info "bounds" ~doc)
    Term.(
      const run $ model_arg $ var_arg $ scenario_arg $ horizon_arg 4.
      $ points_arg $ steps_arg $ epsilon_arg $ jobs_arg $ trace_arg
      $ metrics_arg)

(* hull command *)
let hull_cmd =
  let doc = "Differential-hull rectangle over time (fast, conservative)." in
  let dt_arg =
    Arg.(value & opt float 0.02 & info [ "dt" ] ~docv:"DT" ~doc:"Hull step.")
  in
  let run m horizon dt trace metrics =
    exit_of_result
      (analyse ~jobs:1 ~trace ~metrics m
         { (request m (Codec.Hull_bounds { x0 = None })) with
           horizon = Some horizon; dt = Some dt })
  in
  Cmd.v (Cmd.info "hull" ~doc)
    Term.(
      const run $ model_arg $ horizon_arg 10. $ dt_arg $ trace_arg
      $ metrics_arg)

(* steady command *)
let steady_cmd =
  let doc = "Steady-state Birkhoff region of a 2-variable model." in
  let run m trace metrics =
    exit_of_result
      (analyse ~jobs:1 ~trace ~metrics m
         (request m (Codec.Steady { x_start = Some (Model.x0 m) })))
  in
  Cmd.v (Cmd.info "steady" ~doc)
    Term.(const run $ model_arg $ trace_arg $ metrics_arg)

(* simulate command *)
let simulate_cmd =
  let doc = "Exact stochastic simulation of the size-N system." in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.") in
  let points_arg =
    Arg.(value & opt int 50 & info [ "points" ] ~docv:"P" ~doc:"Output samples.")
  in
  let policy_arg =
    Arg.(
      value & opt string "mid"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Named policy, `mid' (θ midpoint), `lo', or `hi'.")
  in
  let reps_arg =
    Arg.(
      value & opt int 1
      & info [ "reps" ] ~docv:"R"
          ~doc:
            "Independent replications.  With $(docv) = 1 (default) one \
             trajectory is sampled over time; with $(docv) > 1 the final \
             state of $(docv) runs is reported (parallelises with --jobs).")
  in
  let run m n horizon seed points policy reps jobs trace metrics =
    exit_of_result
      (if points < 1 then Error (`Msg "need at least one point")
       else
         let sample = if reps = 1 then `Trajectory points else `Finals reps in
         analyse ~jobs ~trace ~metrics m
           { (request m (Codec.Simulate { n; policy; seed; sample })) with
             horizon = Some horizon })
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run $ model_arg $ n_arg 1000 $ horizon_arg 10. $ seed_arg $ points_arg
      $ policy_arg $ reps_arg $ jobs_arg $ trace_arg $ metrics_arg)

(* ctmc command: the finite-N engine *)
let ctmc_cmd =
  let doc =
    "Finite-N CTMC analysis: enumerate the N-scaled lattice of a model \
     (exactly, or adaptively truncated with certified escaped-mass bounds) \
     and solve it with the sparse uniformisation engine."
  in
  let mode_arg =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [
                  ("transient", `Transient);
                  ("stationary", `Stationary);
                  ("bounds", `Envelope);
                  ("first-passage", `First_passage);
                ]))
          None
      & info [] ~docv:"MODE"
          ~doc:
            "What to compute: `transient' (exact E[x(t)] per variable), \
             `stationary' (exact stationary means), `bounds' (exact \
             envelope of one variable over the $(b,theta)-box), or \
             `first-passage' (certified hitting-probability and \
             mean-first-passage-time bounds for a threshold on one \
             variable, over every adapted $(b,theta)-process).")
  in
  let var_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "var" ] ~docv:"VAR" ~doc:"Variable name (required for bounds).")
  in
  let theta_arg =
    Arg.(
      value & opt string "mid"
      & info [ "theta" ] ~docv:"THETA"
          ~doc:
            "Parameter point for transient/stationary: `mid', `lo' or `hi' \
             corner of the $(b,theta)-box.")
  in
  let scenario_arg =
    Arg.(
      value & opt string "uncertain"
      & info [ "scenario" ] ~docv:"S"
          ~doc:
            "Envelope scenario for bounds: `uncertain' ($(b,theta) constant, \
             grid sweep) or `imprecise' (time-varying $(b,theta), backward \
             sweeps; needs rates affine in $(b,theta)).")
  in
  let grid_arg =
    Arg.(
      value & opt int 3
      & info [ "grid" ] ~docv:"G"
          ~doc:"Per-axis grid for the uncertain envelope.")
  in
  let points_arg =
    Arg.(value & opt int 11 & info [ "points" ] ~docv:"P" ~doc:"Sample times.")
  in
  let epsilon_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "epsilon" ] ~docv:"EPS"
          ~doc:
            "Target certified error.  For transient/stationary/bounds the \
             budget splits evenly between the uniformisation mass \
             tolerance and — on the imprecise envelope — the adaptive \
             backward sweep's a-priori discretisation budget; for \
             first-passage it is the sweep budget directly.  Default: \
             mass tolerance 1e-12 with the fixed stability grid \
             (first-passage: 1e-3).  The itemised budget prints with \
             $(b,--metrics).")
  in
  let above_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "above" ] ~docv:"X"
          ~doc:
            "first-passage target: the set where --var's density is >= \
             $(docv).")
  in
  let below_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "below" ] ~docv:"X"
          ~doc:
            "first-passage target: the set where --var's density is <= \
             $(docv).")
  in
  let max_states_arg =
    Arg.(
      value & opt int 2_000_000
      & info [ "max-states" ] ~docv:"M" ~doc:"Lattice enumeration budget.")
  in
  let truncation_arg =
    Arg.(
      value
      & opt (enum [ ("exact", `Exact); ("adaptive", `Adaptive) ]) `Exact
      & info [ "truncation" ] ~docv:"POLICY"
          ~doc:
            "What happens when the lattice outgrows --max-states: `exact' \
             fails loudly; `adaptive' retains the closest states and \
             reports the escaped probability mass as a certified bound \
             (escaped column).")
  in
  let run mode m n var theta_point scenario grid horizon points epsilon above
      below max_states truncation jobs trace metrics =
    exit_of_result
      (let* () = epsilon_ok epsilon in
       if n < 1 then Error (`Msg "--n must be >= 1")
       else if points < 2 then Error (`Msg "need at least 2 points")
       else
         let times = Some (Vec.linspace 0. horizon points) in
         let coord what =
           match var with
           | Some v -> var_index m v
           | None -> Error (`Msg (what ^ " needs --var"))
         in
         let ctmc mode =
           Codec.Ctmc { mode; n; epsilon; truncation; max_states; times }
         in
         let* scenario, op =
           match mode with
           | `Envelope ->
               let* coord = coord "bounds" in
               let* scenario =
                 match scenario with
                 | "imprecise" -> Ok Analysis.Imprecise
                 | "uncertain" -> Ok (Analysis.Uncertain grid)
                 | s -> Error (`Msg (Printf.sprintf "unknown scenario %s" s))
               in
               Ok (scenario, ctmc (`Envelope coord))
           | `First_passage ->
               let* coord = coord "first-passage" in
               let* level, direction =
                 match (above, below) with
                 | Some a, None -> Ok (a, `Above)
                 | None, Some b -> Ok (b, `Below)
                 | _ ->
                     Error
                       (`Msg "first-passage needs exactly one of --above/--below")
               in
               let max_states = Some max_states in
               Ok
                 ( Analysis.Imprecise,
                   Codec.First_passage
                     { n; coord; level; direction; epsilon; max_states; times } )
           | (`Transient | `Stationary) as mode -> (
               match (List.assoc_opt theta_point Codec.theta_points, mode) with
               | None, _ -> Error (`Msg ("unknown theta point " ^ theta_point))
               | Some p, `Transient -> Ok (Analysis.Imprecise, ctmc (`Transient p))
               | Some p, `Stationary -> Ok (Analysis.Imprecise, ctmc (`Stationary p)))
         in
         analyse ~jobs ~trace ~metrics m
           { (request m op) with scenario; horizon = Some horizon })
  in
  Cmd.v (Cmd.info "ctmc" ~doc)
    Term.(
      const run $ mode_arg $ model_arg $ n_arg 100 $ var_arg $ theta_arg
      $ scenario_arg $ grid_arg $ horizon_arg 10. $ points_arg
      $ epsilon_arg $ above_arg $ below_arg $ max_states_arg $ truncation_arg
      $ jobs_arg $ trace_arg $ metrics_arg)

(* lint command *)
let lint_cmd =
  let doc =
    "Statically analyse a model: certified rate soundness, structure \
     classification, conservation laws, a Lipschitz certificate and \
     dead-code lints; --tape adds the tape tier (certified \
     float-safety, rounding-error bounds and sign/monotonicity facts \
     for the compiled drift)."
  in
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"every linted model is clean (no findings gate).";
      Cmd.Exit.info 1
        ~doc:
          "$(b,--strict) and at least one Warning-level finding (but no \
           errors).";
      Cmd.Exit.info 2 ~doc:"at least one Error-level finding (always fatal).";
      Cmd.Exit.info Cmd.Exit.cli_error ~doc:"command-line parse error.";
    ]
  in
  let model_pos_arg =
    Arg.(
      value
      & pos 0 (some model_conv) None
      & info [] ~docv:"MODEL" ~doc:"Model name (see `models').")
  in
  let all_arg =
    Arg.(value & flag & info [ "all" ] ~doc:"Lint every bundled model.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Treat Warning-level findings as failures: exit 1 when any \
             linted model has warnings (errors exit 2 regardless).")
  in
  let tape_arg =
    Arg.(
      value & flag
      & info [ "tape" ]
          ~doc:
            "Run the tape tier too: abstractly interpret the compiled \
             drift (and its $(b,theta)-Jacobian) over clip box × \
             $(b,theta)-box, certifying float-safety, an a-priori \
             rounding-error bound per drift coordinate, and \
             sign/monotonicity facts (T-codes).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Machine-readable output: NDJSON, one object per finding \
             followed by one summary object per model.")
  in
  let lint_model ~tape ~json m =
    let report = Lint.analyze ~tape m in
    if json then begin
      List.iter
        (fun f ->
          print_endline (Obs.Json.to_string (Lint.finding_to_json report f)))
        report.Lint.findings;
      print_endline (Obs.Json.to_string (Lint.summary_to_json report))
    end
    else Format.printf "%a@." Lint.pp_report report;
    (List.length (Lint.errors report), List.length (Lint.warnings report))
  in
  let run model all tape json strict =
    let models =
      match (model, all) with
      | None, false ->
          Printf.eprintf "error: need a MODEL argument (or --all)\n";
          exit Cmd.Exit.cli_error
      | Some m, false -> [ m ]
      | _, true -> List.map snd (Registry.all ())
    in
    let errors, warnings =
      List.fold_left
        (fun (e, w) m ->
          let e', w' = lint_model ~tape ~json m in
          (e + e', w + w'))
        (0, 0) models
    in
    if errors > 0 then begin
      Printf.eprintf "error: lint found %d Error-level finding(s)\n" errors;
      exit 2
    end;
    if strict && warnings > 0 then begin
      Printf.eprintf
        "error: lint found %d Warning-level finding(s) (--strict)\n" warnings;
      exit 1
    end
  in
  Cmd.v (Cmd.info "lint" ~doc ~exits)
    Term.(const run $ model_pos_arg $ all_arg $ tape_arg $ json_arg
          $ strict_arg)

let () =
  let doc = "mean-field analysis of uncertain and imprecise stochastic models" in
  let info = Cmd.info "umf_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            models_cmd;
            bounds_cmd;
            hull_cmd;
            steady_cmd;
            simulate_cmd;
            ctmc_cmd;
            lint_cmd;
          ]))
