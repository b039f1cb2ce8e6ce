open Umf_numerics
open Umf_meanfield

type params = {
  a : float;
  gamma : float;
  rho : float;
  xi : float;
  delta : float;
  theta : Interval.t;
}

let default_params =
  { a = 0.01; gamma = 2.; rho = 0.2; xi = 1.; delta = 1.; theta = Interval.make 0.5 4. }

let x0 = [| 0.9; 0.1; 0. |]

let state_clip = Optim.Box.make [| 0.; 0.; 0. |] [| 1.; 1.; 2. |]

let make p =
  let open Expr in
  let s = var 0 and i = var 1 and w = var 2 in
  let recovered = max_ (const 0.) (const 1. -: s -: i) in
  let tr name change rate = { Model.name; change; rate } in
  Model.make ~name:"cholera" ~var_names:[| "S"; "I"; "W" |]
    ~theta_names:[| "theta" |]
    ~theta:(Optim.Box.of_intervals [ p.theta ])
    ~x0 ~clip:state_clip
    [
      tr "infection" [| -1.; 1.; 0. |]
        ((const p.a *: s) +: (theta 0 *: s *: w));
      tr "recovery" [| 0.; -1.; 0. |] (const p.gamma *: i);
      tr "immunity-loss" [| 1.; 0.; 0. |] (const p.rho *: recovered);
      tr "shedding" [| 0.; 0.; 1. |] (const p.xi *: i);
      tr "decay" [| 0.; 0.; -1. |] (const p.delta *: w);
    ]

let di p = Umf_diffinc.Di.of_model (make p)
