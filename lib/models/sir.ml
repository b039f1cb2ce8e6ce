open Umf_numerics
open Umf_meanfield

type params = {
  a : float;
  b : float;
  c : float;
  theta_min : float;
  theta_max : float;
}

let default_params = { a = 0.1; b = 5.; c = 1.; theta_min = 1.; theta_max = 10. }

let x0 = [| 0.7; 0.3 |]

let x0_3 = [| 0.7; 0.3; 0. |]

let theta_box p = Optim.Box.make [| p.theta_min |] [| p.theta_max |]

let policy_theta1 p =
  Policy.hysteresis ~name:"theta1-hysteresis" ~high:[| p.theta_max |]
    ~low:[| p.theta_min |]
    ~drop_if:(fun x -> x.(0) < 0.5)
    ~rise_if:(fun x -> x.(0) > 0.85)
    ~init:`High

let policy_theta2 ?(redraw_rate = 5.) p =
  Policy.jump_redraw ~name:"theta2-redraw"
    ~rate:(fun _t x -> redraw_rate *. x.(1))
    ~redraw:Policy.uniform_redraw ~box:(theta_box p)
    ~init:[| 0.5 *. (p.theta_min +. p.theta_max) |]

(* the single source of truth: symbolic rates, everything else derived *)
let make p =
  let open Expr in
  let s = var 0 and i = var 1 in
  let tr name change rate = { Model.name; change; rate } in
  Model.make ~name:"sir" ~var_names:[| "S"; "I" |] ~theta_names:[| "theta" |]
    ~theta:(theta_box p) ~x0
    ~policies:[ ("theta1", policy_theta1 p); ("theta2", policy_theta2 p) ]
    [
      tr "infection" [| -1.; 1. |] ((const p.a *: s) +: (theta 0 *: s *: i));
      tr "recovery" [| 0.; -1. |] (const p.b *: i);
      tr "immunity-loss" [| 1.; 0. |]
        (const p.c *: max_ (const 0.) (const 1. -: s -: i));
    ]

let make3 p =
  let open Expr in
  let s = var 0 and i = var 1 and r = var 2 in
  let tr name change rate = { Model.name; change; rate } in
  Model.make ~name:"sir3" ~var_names:[| "S"; "I"; "R" |]
    ~theta_names:[| "theta" |] ~theta:(theta_box p) ~x0:x0_3
    [
      tr "infection" [| -1.; 1.; 0. |] ((const p.a *: s) +: (theta 0 *: s *: i));
      tr "recovery" [| 0.; -1.; 1. |] (const p.b *: i);
      tr "immunity-loss" [| 1.; 0.; -1. |] (const p.c *: r);
    ]

let di p = Umf_diffinc.Di.of_model (make p)
