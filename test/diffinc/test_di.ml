open Umf_numerics
open Umf_diffinc

(* 1-D controlled decay: f(x, th) = th - x, th in [1, 2] *)
let decay_di () = Fixture.di ~lo:[| 1. |] ~hi:[| 2. |] Expr.[| theta 0 -: var 0 |]

let test_integrate_constant () =
  let di = decay_di () in
  (* x(t) -> th as t -> inf *)
  let traj = Di.integrate_constant di ~theta:[| 1.5 |] ~x0:[| 0. |] ~horizon:20. ~dt:0.01 in
  Alcotest.(check (float 1e-6)) "converges to theta" 1.5 (Ode.Traj.last traj).(0)

let test_integrate_control_clamps () =
  let di = decay_di () in
  (* a control outside the box must be clamped into [1,2] *)
  let traj =
    Di.integrate_control di
      ~control:(fun _t _x -> [| 100. |])
      ~x0:[| 0. |] ~horizon:20. ~dt:0.01
  in
  Alcotest.(check (float 1e-6)) "clamped to theta_max" 2. (Ode.Traj.last traj).(0)

(* lockstep lanes are their scalar twins bit for bit; a pool slices
   them by 64 *)
let test_lanes () =
  let di = decay_di () in
  let thetas = Array.init 130 (fun i -> [| 1. +. (float_of_int i /. 129.) |]) in
  let final =
    Di.constant_lanes di ~obs:Umf_obs.Obs.off ~thetas
      ~x0s:(Array.make 130 [| 0. |])
      ~horizon:1. ~dt:0.3
      (fun _ _ -> ())
  in
  Array.iteri
    (fun l theta ->
      let traj = Di.integrate_constant di ~theta ~x0:[| 0. |] ~horizon:1. ~dt:0.3 in
      Alcotest.(check bool) "lane = scalar" true
        (Int64.equal
           (Int64.bits_of_float (Mat.get final l 0))
           (Int64.bits_of_float (Ode.Traj.last traj).(0))))
    thetas;
  Alcotest.(check (array int)) "no pool: one slice" [| 130 |]
    (Di.map_slices None ~stage:"test" Array.length thetas);
  Umf_runtime.Runtime.Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.(check (array int)) "pool: slices of 64" [| 64; 64; 2 |]
        (Di.map_slices (Some pool) ~stage:"test" Array.length thetas));
  Alcotest.check_raises "no lanes"
    (Invalid_argument "Di.constant_lanes: no lanes") (fun () ->
      ignore
        (Di.constant_lanes di ~obs:Umf_obs.Obs.off ~thetas:[||] ~x0s:[||]
           ~horizon:1. ~dt:0.3 (fun _ _ -> ())))

let test_hamiltonian () =
  let di = decay_di () in
  Alcotest.(check (float 1e-12)) "H = f . p" 3.
    (Di.hamiltonian di ~x:[| 0.5 |] ~p:[| 3. |] [| 1.5 |])

let test_argmax_vertices_affine () =
  let di = decay_di () in
  (* H = (th - x) p: p > 0 -> th_max; p < 0 -> th_min *)
  let up = Di.argmax_hamiltonian di ~x:[| 0. |] ~p:[| 1. |] in
  let dn = Di.argmax_hamiltonian di ~x:[| 0. |] ~p:[| -1. |] in
  Alcotest.(check (float 1e-12)) "p>0 -> max" 2. up.(0);
  Alcotest.(check (float 1e-12)) "p<0 -> min" 1. dn.(0)

let test_argmax_box_nonaffine () =
  (* H concave in theta with interior max: f = -(th - 1.3)^2 * x *)
  let di =
    Fixture.di ~lo:[| 0. |] ~hi:[| 3. |]
      Expr.[| neg (pow (theta 0 -: const 1.3) 2) *: var 0 |]
  in
  let star = Di.argmax_hamiltonian ~opt:(`Box 7) di ~x:[| 1. |] ~p:[| 1. |] in
  Alcotest.(check (float 0.05)) "interior argmax found" 1.3 star.(0)

let suites =
  [
    ( "di",
      [
        Alcotest.test_case "integrate constant" `Quick test_integrate_constant;
        Alcotest.test_case "control clamping" `Quick test_integrate_control_clamps;
        Alcotest.test_case "lockstep lanes" `Quick test_lanes;
        Alcotest.test_case "hamiltonian" `Quick test_hamiltonian;
        Alcotest.test_case "argmax affine (vertices)" `Quick test_argmax_vertices_affine;
        Alcotest.test_case "argmax non-affine (box)" `Quick test_argmax_box_nonaffine;
      ] );
  ]
