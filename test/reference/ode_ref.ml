(* End points of fixed-step integrations, for the tests that need a
   final state or an equilibrium rather than a trajectory.  The
   arithmetic is [Ode.integrate]'s, step for step. *)
open Umf_numerics

let integrate_to ?method_ ?check f ~t0 ~y0 ~t1 ~dt =
  Ode.Traj.last (Ode.integrate ?method_ ?check f ~t0 ~y0 ~t1 ~dt)

let fixed_point ?(tol = 1e-9) ?(dt = 1e-2) ?(max_time = 1e4) f y0 =
  let t = ref 0. and y = ref y0 in
  let converged = ref false in
  while (not !converged) && !t < max_time do
    (* integrate in bursts, checking the drift between bursts *)
    let burst = Float.min 1.0 (max_time -. !t) in
    y := integrate_to f ~t0:!t ~y0:!y ~t1:(!t +. burst) ~dt;
    t := !t +. burst;
    if Vec.norm_inf (f !t !y) < tol then converged := true
  done;
  if not !converged then failwith "Ode_ref.fixed_point: no equilibrium reached";
  !y
