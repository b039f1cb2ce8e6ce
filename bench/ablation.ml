(* Ablations of the design choices called out in DESIGN.md:
   (a) Pontryagin arg-max by vertex enumeration vs grid+descent;
   (b) costate with analytic Jacobian vs finite differences;
   (c) Pontryagin relaxation factor. *)
open Umf

let run () =
  Common.banner "ABLATION: solver design choices (SIR, max x_I(3))";
  let p = Sir.default_params in
  let di_analytic = Sir.di p in
  let di_fd = Di.make ~dim:2 ~theta:di_analytic.Di.theta di_analytic.Di.drift in
  let solve ?opt ?relax di =
    Common.time_it (fun () ->
        (Pontryagin.solve ~steps:300 ?opt ?relax di ~x0:Sir.x0 ~horizon:3.
           ~sense:`Max (`Coord 1))
          .Pontryagin.value)
  in
  let v_vert, t_vert = solve ~opt:`Vertices di_analytic in
  let v_grid, t_grid = solve ~opt:(`Box 5) di_analytic in
  let v_fd, t_fd = solve di_fd in
  Common.header [ "variant"; "value"; "seconds" ];
  Printf.printf "argmax=vertices, jac=analytic\t%.5f\t%.3f\n" v_vert t_vert;
  Printf.printf "argmax=grid(5)+descent\t%.5f\t%.3f\n" v_grid t_grid;
  Printf.printf "jacobian=finite-diff\t%.5f\t%.3f\n" v_fd t_fd;
  Common.claim "vertex argmax = grid argmax (drift affine in theta)"
    (Float.abs (v_vert -. v_grid) < 1e-3)
    (Printf.sprintf "delta %.2e" (Float.abs (v_vert -. v_grid)));
  Common.claim "vertex argmax faster than grid"
    (t_vert < t_grid)
    (Printf.sprintf "%.3fs vs %.3fs" t_vert t_grid);
  Common.claim "FD Jacobian matches analytic"
    (Float.abs (v_vert -. v_fd) < 1e-4)
    (Printf.sprintf "delta %.2e" (Float.abs (v_vert -. v_fd)));
  (* relaxation ablation: full updates cycle into a worse pattern *)
  let v_r05, _ = solve ~relax:0.5 di_analytic in
  let v_r10, _ = solve ~relax:1.0 di_analytic in
  Printf.printf "relax=0.5 value %.5f, relax=1.0 value %.5f\n" v_r05 v_r10;
  Common.claim "under-relaxation never worse than full updates"
    (v_r05 >= v_r10 -. 1e-4)
    (Printf.sprintf "%.5f vs %.5f" v_r05 v_r10)
