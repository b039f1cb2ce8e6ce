open Umf_numerics
open Umf_meanfield
open Umf_models

let p = Gps.default_params

let test_equivalent_rate () =
  (* 1/lambda' = 1/a + 1/lambda *)
  Alcotest.(check (float 1e-12)) "a=1, l=1" 0.5
    (Gps.equivalent_poisson_rate ~a:1. ~lambda:1.);
  Alcotest.(check (float 1e-12)) "a=2, l=2" 1.
    (Gps.equivalent_poisson_rate ~a:2. ~lambda:2.);
  (* the mean cycle times agree by construction *)
  let a = 1.7 and lambda = 4.2 in
  let l' = Gps.equivalent_poisson_rate ~a ~lambda in
  Alcotest.(check (float 1e-12)) "mean times equal"
    ((1. /. a) +. (1. /. lambda))
    (1. /. l')

let test_poisson_theta_box () =
  let m = Gps.make_poisson p in
  let box = (Model.theta m) in
  (* lambda'1 in [1/(1+1), 1/(1+1/7)] = [0.5, 0.875] *)
  Alcotest.(check (float 1e-9)) "lo1" 0.5 box.Optim.Box.lo.(0);
  Alcotest.(check (float 1e-9)) "hi1" 0.875 box.Optim.Box.hi.(0);
  (* lambda'2 in [1/(1/2+1/2), 1/(1/2+1/3)] = [1, 1.2] *)
  Alcotest.(check (float 1e-9)) "lo2" 1. box.Optim.Box.lo.(1);
  Alcotest.(check (float 1e-9)) "hi2" 1.2 box.Optim.Box.hi.(1)

let test_empty_system_no_service () =
  let m = Gps.make_poisson p in
  let f = Model.drift m [| 0.; 0. |] [| 0.6; 1.1 |] in
  (* only arrivals act on an empty system *)
  Alcotest.(check (float 1e-12)) "dq1 = lambda'1" 0.6 f.(0);
  Alcotest.(check (float 1e-12)) "dq2 = lambda'2" 1.1 f.(1)

let test_full_capacity_split () =
  (* with equal weights and equal backlogs, the machine splits its
     capacity in half: service drift of class i = mu_i c / 2 / gamma_i *)
  let m = Gps.make_poisson p in
  let f = Model.drift m [| 1.; 1. |] [| 0.; 0. |] in
  (* zero arrivals (outside the box, but rates only use theta directly):
     dq_i = -mu_i c phi_i q_i / backlog; backlog = 1 at q = (1,1) *)
  Alcotest.(check (float 1e-9)) "class 1 drain rate"
    (-.(p.Gps.mu1 *. p.Gps.capacity))
    f.(0);
  Alcotest.(check (float 1e-9)) "class 2 drain rate"
    (-.(p.Gps.mu2 *. p.Gps.capacity))
    f.(1)

let test_work_conservation () =
  (* total weighted service equals the full capacity when backlogged:
     sum_i gamma_i * service_i / mu_i = c *)
  let m = Gps.make_poisson p in
  List.iter
    (fun (q1, q2) ->
      let f0 = Model.drift m [| q1; q2 |] [| 0.; 0. |] in
      let used =
        (-.f0.(0) *. p.Gps.gamma1 /. p.Gps.mu1)
        +. (-.f0.(1) *. p.Gps.gamma2 /. p.Gps.mu2)
      in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "capacity used at (%g, %g)" q1 q2)
        p.Gps.capacity used)
    [ (0.5, 0.5); (0.9, 0.1); (0.2, 0.7) ]

let test_poisson_drift_monotone_in_lambda () =
  (* the key structural fact behind "uncertain = imprecise for Poisson":
     each drift coordinate increases with its own lambda and ignores the
     other *)
  let m = Gps.make_poisson p in
  let x = [| 0.3; 0.4 |] in
  let f_lo = Model.drift m x [| 0.5; 1. |] in
  let f_hi = Model.drift m x [| 0.875; 1. |] in
  Alcotest.(check bool) "dq1 increases in lambda1" true (f_hi.(0) > f_lo.(0));
  Alcotest.(check (float 1e-12)) "dq2 unchanged" f_lo.(1) f_hi.(1)

let test_map_conservation () =
  (* per class, q + d + e = 1 is preserved: drift components of q and d
     sum to the negated e-drift; equivalently each transition preserves
     the class total *)
  let m = Gps.make_map p in
  List.iter
    (fun (tr : Model.transition) ->
      let ch = tr.Model.change in
      Alcotest.(check (float 1e-12))
        (tr.Model.name ^ " preserves class totals")
        0.
        (Float.abs (ch.(0) +. ch.(1)) *. Float.abs (ch.(2) +. ch.(3))))
    (Model.transitions m)

let test_map_activation_flow () =
  let m = Gps.make_map p in
  (* state: q1=0.1 d1=0.2 (e1=0.7), q2=0.1 d2=0.9 (e2=0) *)
  let x = [| 0.1; 0.2; 0.1; 0.9 |] in
  let f = Model.drift m x [| 1.; 2. |] in
  (* dd1 = a1 e1 - lambda1 d1 = 0.7 - 0.2 = 0.5 *)
  Alcotest.(check (float 1e-9)) "dd1" 0.5 f.(1);
  (* dd2 = a2 e2 - lambda2 d2 = 0 - 1.8 *)
  Alcotest.(check (float 1e-9)) "dd2" (-1.8) f.(3)

let test_with_phi1 () =
  let p9 = Gps.with_phi1 p 9. in
  Alcotest.(check (float 1e-12)) "phi1 replaced" 9. p9.Gps.phi1;
  Alcotest.(check (float 1e-12)) "phi2 kept" 1. p9.Gps.phi2;
  (* larger phi1 shifts service towards class 1 *)
  let f1 = Model.drift (Gps.make_poisson p) [| 0.5; 0.5 |] [| 0.; 0. |] in
  let f9 = Model.drift (Gps.make_poisson p9) [| 0.5; 0.5 |] [| 0.; 0. |] in
  Alcotest.(check bool) "class 1 served faster" true (f9.(0) < f1.(0));
  Alcotest.(check bool) "class 2 served slower" true (f9.(1) > f1.(1))

let test_total_queue () =
  Alcotest.(check (float 1e-12)) "poisson" 0.7 (Gps.total_queue `Poisson [| 0.3; 0.4 |]);
  Alcotest.(check (float 1e-12)) "map" 0.7
    (Gps.total_queue `Map [| 0.3; 0.1; 0.4; 0.2 |])

let test_ssa_stays_in_bounds () =
  let m = Gps.make_map p in
  let policy = Policy.constant [| 4.; 2.5 |] in
  let rng = Rng.create 11 in
  let traj = Ssa.trajectory m ~n:200 ~x0:Gps.x0_map ~policy ~tmax:5. rng in
  Array.iter
    (fun x ->
      for i = 0 to 3 do
        Alcotest.(check bool) "component in [0,1]" true
          (x.(i) >= -1e-9 && x.(i) <= 1. +. 1e-9)
      done;
      Alcotest.(check bool) "class totals" true
        (x.(0) +. x.(1) <= 1. +. 1e-9 && x.(2) +. x.(3) <= 1. +. 1e-9))
    traj.Ode.Traj.states

let suites =
  [
    ( "gps",
      [
        Alcotest.test_case "equivalent Poisson rate" `Quick test_equivalent_rate;
        Alcotest.test_case "Poisson theta box" `Quick test_poisson_theta_box;
        Alcotest.test_case "empty system" `Quick test_empty_system_no_service;
        Alcotest.test_case "equal backlog split" `Quick test_full_capacity_split;
        Alcotest.test_case "work conservation" `Quick test_work_conservation;
        Alcotest.test_case "Poisson drift monotone" `Quick test_poisson_drift_monotone_in_lambda;
        Alcotest.test_case "MAP class conservation" `Quick test_map_conservation;
        Alcotest.test_case "MAP activation flow" `Quick test_map_activation_flow;
        Alcotest.test_case "phi1 override" `Quick test_with_phi1;
        Alcotest.test_case "total queue" `Quick test_total_queue;
        Alcotest.test_case "SSA bounds" `Quick test_ssa_stays_in_bounds;
      ] );
  ]
