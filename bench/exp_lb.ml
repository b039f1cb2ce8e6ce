(* Robust routing comparison on the power-of-d-choices system: which
   policy keeps the worst-case backlog lower when the arrival rate
   varies adversarially in [0.5, 0.9]?  The mean-field envelopes decide
   the design question at a glance. *)
open Umf

let horizon = 100.

let run () =
  Common.banner "LB: robust routing, JSQ(2) vs random, imprecise arrivals";
  let params d = { Loadbalance.default_params with Loadbalance.d } in
  let worst d =
    let p = params d in
    let di = Loadbalance.di p in
    let ones = Vec.create p.Loadbalance.k_max 1. in
    (* worst-case mean queue length at a horizon long enough for the
       slow d = 1 system (relaxation time ~ 1/(1 - rho) = 10) *)
    (Pontryagin.solve ~steps:400 di ~x0:(Loadbalance.x0_empty p) ~horizon
       ~sense:`Max (`Linear ones))
      .Pontryagin.value
  in
  let const_max d =
    (* same horizon, constant lambda_max: the uncertain worst case *)
    let p = params d in
    let di = Loadbalance.di p in
    let final =
      Ode.Traj.last
        (Di.integrate_constant di ~theta:[| 0.9 |]
           ~x0:(Loadbalance.x0_empty p) ~horizon ~dt:0.02)
    in
    Loadbalance.mean_queue final
  in
  Common.header
    [ "policy"; "worst-case mean queue"; "constant-0.9 same horizon"; "equilibrium" ];
  let w1 = worst 1 and w2 = worst 2 in
  let c1 = const_max 1 and c2 = const_max 2 in
  Printf.printf "random (d=1)\t%.3f\t%.3f\t%.3f\n" w1 c1
    (Loadbalance.mean_queue (Loadbalance.fixed_point (params 1) ~lambda:0.9));
  Printf.printf "JSQ(2)\t%.3f\t%.3f\t%.3f\n" w2 c2
    (Loadbalance.mean_queue (Loadbalance.fixed_point (params 2) ~lambda:0.9));
  Common.claim "JSQ(2) robustly beats random routing at T=100"
    (w2 < 0.75 *. w1)
    (Printf.sprintf "%.3f vs %.3f" w2 w1);
  let eq d =
    Loadbalance.mean_queue (Loadbalance.fixed_point (params d) ~lambda:0.9)
  in
  (* the d=1 system converges very slowly at rho = 0.9; in steady state
     the doubly-exponential tail gives JSQ(2) a >2x advantage *)
  Common.claim "JSQ(2) wins by >2x in the worst-case steady state"
    (eq 2 < 0.5 *. eq 1)
    (Printf.sprintf "%.3f vs %.3f" (eq 2) (eq 1));
  Common.claim "worst case ~ constant lambda_max (monotone drift)"
    (Float.abs (w1 -. c1) < 0.05 *. c1 && Float.abs (w2 -. c2) < 0.05 *. c2)
    (Printf.sprintf "d=1: %.3f vs %.3f; d=2: %.3f vs %.3f" w1 c1 w2 c2);
  (* stochastic cross-check at N = 500 *)
  let p2 = params 2 in
  let avg =
    Ssa.time_average (Loadbalance.make p2) ~n:500
      ~x0:(Loadbalance.x0_empty p2)
      ~policy:(Policy.constant [| 0.9 |])
      ~tmax:60. ~warmup:20. ~reward:Loadbalance.mean_queue (Rng.create 3)
  in
  Common.claim "N=500 simulation within the worst-case bound"
    (avg <= w2 +. 0.15)
    (Printf.sprintf "simulated %.3f, bound %.3f" avg w2)
