(* Cert: the unified error ledger and the adaptive imprecise sweep.

   Claims backed here:
   - the adaptive backward sweep meets a requested a-priori ε on a
     small SIR chain, and does so with no more Euler steps than the
     coarsest uniform grid whose certified promise reaches the same ε
     (found by doubling search, so both sides pay for the identical
     guarantee);
   - asking Ctmc.Engine.envelope for the adaptive ledger
     (~sweep_eps) instead of the fixed-grid default keeps the
     certificate's discretisation line within the requested ε while
     the fixed grid's line is whatever the default step count buys.

   Knobs:

     UMF_CERT_N      SIR population size for the imprecise chain
                     (default 8; the lattice, and with it λ, grows
                     with N, so raise ε or expect more steps)

   Wall times are recorded per run together with the core count, so
   the JSON stays honest on a 1-core CI box.  Results go to
   BENCH_cert.json. *)
open Umf

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (match int_of_string_opt s with Some v -> v | None -> default)
  | None -> default

let cores = Domain.recommended_domain_count ()
let n = env_int "UMF_CERT_N" 8
let horizon = 1.0
let epsilons = [ 0.2; 0.1; 0.05; 0.02 ]

let imprecise_sir () =
  let model = Registry.find_exn "sir" in
  let sp =
    Ctmc_of_population.state_space ~clip:(Model.clip model) ~max_states:2_000
      ~truncation:`Adaptive model ~n ~x0:(Model.x0 model)
  in
  let im = Ctmc_of_population.imprecise ~theta:(Model.theta model) sp model in
  im

(* smallest power-of-two steps_per_unit whose fixed-grid certificate
   promises the same ε the adaptive run was asked for *)
let fixed_steps_for im ~sense ~h ~epsilon =
  let rec search spu =
    let sw =
      Ctmc.Imprecise.fixed_series ~steps_per_unit:spu ~sense im ~h
        ~times:[| horizon |]
    in
    if sw.Ctmc.Imprecise.eps.(0) <= epsilon || spu >= 1 lsl 24 then sw
    else search (spu * 2)
  in
  search 1

let equal_epsilon () =
  let im = imprecise_sir () in
  let states = Ctmc.Imprecise.n_states im in
  let lambda = Ctmc.Imprecise.max_exit_bound im in
  let h = Array.init states (fun i -> float_of_int (i mod 7) /. 6.) in
  let sense = `Upper in
  Common.header
    [ "epsilon"; "adaptive_steps"; "fixed_steps"; "adaptive_s"; "fixed_s" ];
  let ok_eps = ref true and ok_steps = ref true in
  let rows =
    List.map
      (fun epsilon ->
        let adaptive, wall_a =
          Common.time_it (fun () ->
              Ctmc.Imprecise.adaptive_series ~epsilon ~sense im ~h
                ~times:[| horizon |])
        in
        let fixed, wall_f =
          Common.time_it (fun () ->
              fixed_steps_for im ~sense ~h ~epsilon)
        in
        if adaptive.Ctmc.Imprecise.eps.(0) > epsilon +. 1e-12 then
          ok_eps := false;
        if adaptive.Ctmc.Imprecise.steps > fixed.Ctmc.Imprecise.steps then
          ok_steps := false;
        Common.row "%.3f\t%d\t%d\t%.4f\t%.4f\n" epsilon
          adaptive.Ctmc.Imprecise.steps fixed.Ctmc.Imprecise.steps wall_a
          wall_f;
        ( epsilon,
          adaptive.Ctmc.Imprecise.steps,
          adaptive.Ctmc.Imprecise.eps.(0),
          fixed.Ctmc.Imprecise.steps,
          fixed.Ctmc.Imprecise.eps.(0),
          wall_a,
          wall_f ))
      epsilons
  in
  Common.claim "adaptive sweep meets its a-priori epsilon" !ok_eps
    (Printf.sprintf "%d states, lambda=%.1f" states lambda);
  Common.claim "adaptive needs <= the equal-epsilon uniform grid" !ok_steps
    "steps vs doubling-searched fixed grid";
  (states, lambda, rows)

let ledger_overhead () =
  let model = Registry.find_exn "sir" in
  let epsilon = 0.05 in
  let reward = Ctmc.Engine.Coord 1 in
  let line name (c : Cert.t) =
    match List.assoc_opt name (Cert.lines c) with Some v -> v | None -> 0.
  in
  let run ?sweep_eps () =
    Ctmc.Engine.envelope
      (Ctmc.Engine.spec ~horizon ~times:[| horizon |] ?sweep_eps ~n model)
      ~reward
  in
  let fixed, wall_f = Common.time_it (fun () -> run ()) in
  let adaptive, wall_a = Common.time_it (fun () -> run ~sweep_eps:epsilon ()) in
  let last (e : Ctmc.Engine.envelope) =
    e.Ctmc.Engine.certs.(Array.length e.Ctmc.Engine.certs - 1)
  in
  let disc_f = line "discretisation" (last fixed)
  and disc_a = line "discretisation" (last adaptive) in
  Common.header
    [ "sweep"; "steps"; "disc_line"; "width"; "wall_s" ];
  Common.row "fixed\t%d\t%.3e\t%.4f\t%.4f\n" fixed.Ctmc.Engine.sweep_steps
    disc_f
    (Cert.width (last fixed))
    wall_f;
  Common.row "adaptive\t%d\t%.3e\t%.4f\t%.4f\n"
    adaptive.Ctmc.Engine.sweep_steps disc_a
    (Cert.width (last adaptive))
    wall_a;
  Common.claim "adaptive ledger keeps discretisation within 2*epsilon"
    (disc_a <= (2. *. epsilon) +. 1e-12)
    (Printf.sprintf "disc=%.3e for eps=%.2f (two sweeps)" disc_a epsilon);
  (epsilon, fixed, wall_f, disc_f, adaptive, wall_a, disc_a)

let run () =
  Common.banner "Cert: error ledger & adaptive imprecise sweeps";
  let states, lambda, rows = equal_epsilon () in
  let eps_o, env_f, wall_f, disc_f, env_a, wall_a, disc_a =
    ledger_overhead ()
  in
  let oc = open_out "BENCH_cert.json" in
  output_string oc
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("cores", Obs.Json.Num (float_of_int cores));
            ("n", Obs.Json.Num (float_of_int n));
            ("states", Obs.Json.Num (float_of_int states));
            ("max_exit_bound", Obs.Json.Num lambda);
            ( "equal_epsilon",
              Obs.Json.Arr
                (List.map
                   (fun (eps, a_steps, a_eps, f_steps, f_eps, wa, wf) ->
                     Obs.Json.Obj
                       [
                         ("epsilon", Obs.Json.Num eps);
                         ( "adaptive_steps",
                           Obs.Json.Num (float_of_int a_steps) );
                         ("adaptive_eps", Obs.Json.Num a_eps);
                         ("fixed_steps", Obs.Json.Num (float_of_int f_steps));
                         ("fixed_eps", Obs.Json.Num f_eps);
                         ("adaptive_wall_s", Obs.Json.Num wa);
                         ("fixed_wall_s", Obs.Json.Num wf);
                       ])
                   rows) );
            ( "envelope_ledger",
              Obs.Json.Obj
                [
                  ("sweep_eps", Obs.Json.Num eps_o);
                  ( "fixed",
                    Obs.Json.Obj
                      [
                        ( "sweep_steps",
                          Obs.Json.Num
                            (float_of_int env_f.Ctmc.Engine.sweep_steps) );
                        ("discretisation", Obs.Json.Num disc_f);
                        ("wall_s", Obs.Json.Num wall_f);
                      ] );
                  ( "adaptive",
                    Obs.Json.Obj
                      [
                        ( "sweep_steps",
                          Obs.Json.Num
                            (float_of_int env_a.Ctmc.Engine.sweep_steps) );
                        ("discretisation", Obs.Json.Num disc_a);
                        ("wall_s", Obs.Json.Num wall_a);
                      ] );
                ] );
          ]));
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_cert.json"
