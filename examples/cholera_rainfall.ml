(* Cholera under unpredictable rainfall (the paper's motivation [3]):
   the water-borne infection rate theta depends on rainfall, which
   varies in time with no usable model — only a range is known.

   The model is specified symbolically, so this example also shows the
   certified tool-chain: exact Jacobians for the Pontryagin bounds and
   interval-arithmetic differential hulls that are guaranteed, not
   sampled.

   Run with: dune exec examples/cholera_rainfall.exe *)
open Umf

let () =
  let p = Cholera.default_params in
  let s = Cholera.make p in
  let di = Cholera.di p in
  Printf.printf "water-borne infection rate theta in [%g, %g] (rainfall-driven)\n"
    (Interval.lo p.Cholera.theta) (Interval.hi p.Cholera.theta);
  Printf.printf "drift affine in theta: %b (vertex bang-bang controls exact)\n\n"
    (Model.affine_in_theta s);

  (* worst-case infected fraction over the first weeks *)
  print_endline "t\tworst-case infected (imprecise)\tbest-case";
  List.iter
    (fun t ->
      let hi =
        (Pontryagin.solve ~steps:250 di ~x0:Cholera.x0 ~horizon:t ~sense:`Max
           (`Coord 1))
          .Pontryagin.value
      in
      let lo =
        (Pontryagin.solve ~steps:250 di ~x0:Cholera.x0 ~horizon:t ~sense:`Min
           (`Coord 1))
          .Pontryagin.value
      in
      Printf.printf "%.1f\t%.4f\t\t\t\t%.4f\n" t hi lo)
    [ 1.; 2.; 4.; 8. ];

  (* certified hull: guaranteed envelope for all three state variables
     over the early outbreak (like all rectangular hulls it loosens
     over long horizons — see Figure 4 of the paper) *)
  let h =
    Certified.hull_bounds ~clip:Cholera.state_clip s ~x0:Cholera.x0 ~horizon:2.
      ~dt:0.01
  in
  let lo = Hull.lower_at h 2. and hi = Hull.upper_at h 2. in
  Printf.printf
    "\ncertified 2-week envelope (interval arithmetic, guaranteed):\n\
    \  S in [%.3f, %.3f], I in [%.3f, %.3f], W in [%.3f, %.3f]\n"
    lo.(0) hi.(0) lo.(1) hi.(1) lo.(2) hi.(2);

  (* what sanitation does: a higher bacterial decay rate delta *)
  print_endline "\nsanitation study: worst-case infected at t=8 vs decay rate";
  List.iter
    (fun delta ->
      let di' = Cholera.di { p with Cholera.delta } in
      let worst =
        (Pontryagin.solve ~steps:250 di' ~x0:Cholera.x0 ~horizon:8. ~sense:`Max
           (`Coord 1))
          .Pontryagin.value
      in
      Printf.printf "delta = %.1f\t->\t%.4f\n" delta worst)
    [ 0.5; 1.; 2.; 4. ];

  (* validate against a finite community: the infected level at week 8
     under a seasonal rainfall pattern stays within the imprecise bounds *)
  let model = Cholera.make p in
  let rng = Rng.create 11 in
  let monsoon =
    Policy.feedback "monsoon" (fun t _x ->
        (* alternating dry/wet seasons *)
        if Float.rem t 4. < 2. then [| Interval.lo p.Cholera.theta |]
        else [| Interval.hi p.Cholera.theta |])
  in
  let acc = Stats.Running.create () in
  for _ = 1 to 20 do
    let x = Ssa.final model ~n:2000 ~x0:Cholera.x0 ~policy:monsoon ~tmax:8. rng in
    Stats.Running.add acc x.(1)
  done;
  let bound sense =
    (Pontryagin.solve ~steps:250 di ~x0:Cholera.x0 ~horizon:8. ~sense (`Coord 1))
      .Pontryagin.value
  in
  Printf.printf
    "\nseasonal simulation (N = 2000): infected at week 8 = %.4f +/- %.4f,\n\
     inside the imprecise envelope [%.4f, %.4f]\n"
    (Stats.Running.mean acc) (Stats.Running.std acc) (bound `Min) (bound `Max)
