open Umf_numerics

let sup_distance t1 t2 ~times =
  Array.fold_left
    (fun worst t ->
      Float.max worst (Vec.dist_inf (Ode.Traj.at t1 t) (Ode.Traj.at t2 t)))
    0. times

let error_vs_limit model ~n ~theta ~x0 ~times ~runs ~seed =
  if runs <= 0 then invalid_arg "Convergence.error_vs_limit: need runs > 0";
  let m = Array.length times in
  if m = 0 then invalid_arg "Convergence.error_vs_limit: no sample times";
  let tmax = times.(m - 1) in
  let limit =
    Ode.integrate (fun _t x -> Model.drift model x theta) ~t0:0. ~y0:x0 ~t1:tmax
      ~dt:(tmax /. 2000.)
  in
  let limit_states = Array.map (Ode.Traj.at limit) times in
  let rng = Rng.create seed in
  let acc = ref 0. in
  for _ = 1 to runs do
    let states =
      Ssa.sampled model ~n ~x0 ~policy:(Policy.constant theta) ~times rng
    in
    let err = ref 0. in
    Array.iteri
      (fun i s -> err := Float.max !err (Vec.dist_inf s limit_states.(i)))
      states;
    acc := !acc +. !err
  done;
  !acc /. float_of_int runs
