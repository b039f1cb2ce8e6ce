(* Quickstart: define an imprecise population model from scratch and
   run the three analyses the library offers.

   The model: machines in a cluster fail at an imprecise rate
   theta_f in [0.1, 0.5] (the environment decides) and are repaired at
   a known rate 2.  How many machines can be down at time t, whatever
   the environment does?

   Run with: dune exec examples/quickstart.exe *)
open Umf

let () =
  (* 1. the model: one density variable D (fraction of machines down),
     one imprecise parameter theta_f.  Rates are symbolic expressions,
     so the library derives the drift, exact Jacobians and certified
     interval bounds from this single definition. *)
  let theta_box = Optim.Box.make [| 0.1 |] [| 0.5 |] in
  let x0 = [| 0.05 |] in
  let model =
    let open Expr in
    let tr name change rate = { Model.name; change; rate } in
    Model.make ~name:"cluster" ~var_names:[| "Down" |]
      ~theta_names:[| "fail_rate" |] ~theta:theta_box ~x0
      [
        tr "failure" [| 1. |]
          (theta 0 *: max_ (const 0.) (const 1. -: var 0));
        tr "repair" [| -1. |] (const 2. *: var 0);
      ]
  in

  (* 2. transient bounds in the imprecise scenario: the exact envelope
     of the mean-field differential inclusion, by Pontryagin.  One
     Analysis.spec names the model + horizon and is reused below. *)
  let spec = Analysis.spec ~horizon:5. model in
  let bounds = Analysis.transient_bounds spec ~x0 ~coord:0 in
  print_endline "t\tdown_min\tdown_max   (imprecise envelope, N -> inf)";
  Array.iteri
    (fun i t ->
      Printf.printf "%.1f\t%.4f\t%.4f\n" t bounds.Analysis.lower.(i)
        bounds.Analysis.upper.(i))
    bounds.Analysis.times;

  (* 3. compare with the uncertain scenario (failure rate constant but
     unknown): here the drift is monotone in theta, so the envelopes
     coincide *)
  let uspec = Analysis.spec ~scenario:(Analysis.Uncertain 11) ~horizon:5. model in
  let ub = Analysis.transient_bounds uspec ~x0 ~coord:0 in
  let lo_u = ub.Analysis.lower.(10) and hi_u = ub.Analysis.upper.(10) in
  let lo_i = bounds.Analysis.lower.(10) and hi_i = bounds.Analysis.upper.(10) in
  Printf.printf
    "\nat t=5: uncertain [%.4f, %.4f] vs imprecise [%.4f, %.4f]\n" lo_u hi_u
    lo_i hi_i;

  (* 4. a finite cluster: simulate N = 50 machines under an adversarial
     environment that fails machines hardest when few are down *)
  let adversary =
    Policy.feedback "adversary" (fun _t x ->
        if x.(0) < 0.1 then [| 0.5 |] else [| 0.1 |])
  in
  let rng = Rng.create 42 in
  let final =
    Ssa.final model ~n:50 ~x0 ~policy:adversary ~tmax:5. rng
  in
  Printf.printf "\nN=50 sample run under adversarial environment: %.0f%% down at t=5\n"
    (100. *. final.(0));
  let lo5 = bounds.Analysis.lower.(10) and hi5 = bounds.Analysis.upper.(10) in
  Printf.printf "mean-field envelope at t=5 was [%.1f%%, %.1f%%]\n" (100. *. lo5)
    (100. *. hi5)
