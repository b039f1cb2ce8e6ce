(* Certified (lint-gated, interval-face) differential hull on the
   symbolically-specified cholera model, checked against constant-θ
   solutions, plus exact-Jacobian Pontryagin on a 3-D system. *)
open Umf

let run () =
  Common.banner "CERT: certified hull and exact Jacobians (cholera, 3-D)";
  let p = Cholera.default_params in
  let s = Cholera.make p in
  let di = Cholera.di p in
  Common.claim "cholera drift detected affine in theta"
    (Model.affine_in_theta s) "vertex argmax exact";
  let horizon = 3. and dt = 0.01 in
  let certified, t_cert =
    Common.time_it (fun () ->
        Certified.hull_bounds ~clip:Cholera.state_clip s ~x0:Cholera.x0 ~horizon
          ~dt)
  in
  Common.header [ "coord"; "certified width(T)" ];
  let wc = Hull.final_width certified in
  Array.iteri
    (fun i name -> Printf.printf "%s\t%.4f\n" name wc.(i))
    [| "S"; "I"; "W" |];
  Printf.printf "time: certified %.3fs\n" t_cert;
  let th = di.Di.theta in
  let thetas = Optim.Box.midpoint th :: Optim.Box.vertices th in
  Common.claim "certified hull contains the constant-theta solutions"
    (List.for_all
       (fun theta ->
         let traj =
           Di.integrate_constant di ~theta ~x0:Cholera.x0 ~horizon ~dt
         in
         List.for_all
           (fun t -> Hull.contains ~tol:1e-6 certified t (Ode.Traj.at traj t))
           [ 0.5; 1.; 2.; horizon ])
       thetas)
    "soundness by construction";
  Common.claim "certified hull not trivial"
    (wc.(1) < 0.9)
    (Printf.sprintf "I width %.3f" wc.(1));
  (* 3-D Pontryagin with exact symbolic Jacobian *)
  let r =
    Pontryagin.solve ~steps:300 di ~x0:Cholera.x0 ~horizon ~sense:`Max (`Coord 1)
  in
  let u_lo, u_hi =
    Uncertain.extremal_coord ~grid:7 di ~x0:Cholera.x0 ~coord:1 ~horizon
  in
  ignore u_lo;
  Printf.printf "\nmax infected at T=%g: imprecise %.4f vs uncertain %.4f\n"
    horizon r.Pontryagin.value u_hi;
  Common.claim "rainfall variation enlarges the cholera outbreak"
    (r.Pontryagin.value >= u_hi -. 1e-4)
    (Printf.sprintf "%.4f >= %.4f" r.Pontryagin.value u_hi)
