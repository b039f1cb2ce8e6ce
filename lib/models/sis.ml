open Umf_numerics
open Umf_meanfield

type params = { a : float; delta : float; beta : Interval.t }

let default_params = { a = 0.05; delta = 2.; beta = Interval.make 1. 4. }

let theta_box p = Optim.Box.of_intervals [ p.beta ]

let x0 = [| 0.2 |]

let make p =
  let open Expr in
  let i = var 0 in
  let clean = max_ (const 0.) (const 1. -: i) in
  let tr name change rate = { Model.name; change; rate } in
  Model.make ~name:"sis-malware" ~var_names:[| "I" |] ~theta_names:[| "beta" |]
    ~theta:(theta_box p) ~x0
    [
      tr "infection" [| 1. |] ((const p.a *: clean) +: (theta 0 *: i *: clean));
      tr "patch" [| -1. |] (const p.delta *: i);
    ]

let di p = Umf_diffinc.Di.of_model (make p)

(* a(1-x) + b x(1-x) - d x = 0  <=>  b x^2 + (d - b + a) x - a = 0 *)
let equilibrium p ~beta =
  if beta = 0. then p.a /. (p.a +. p.delta)
  else begin
    let bq = p.delta -. beta +. p.a in
    let disc = (bq *. bq) +. (4. *. beta *. p.a) in
    ((-.bq) +. sqrt disc) /. (2. *. beta)
  end
