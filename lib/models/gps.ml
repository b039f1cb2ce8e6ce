open Umf_numerics
open Umf_meanfield

type params = {
  mu1 : float;
  mu2 : float;
  phi1 : float;
  phi2 : float;
  gamma1 : float;
  gamma2 : float;
  capacity : float;
  a1 : float;
  a2 : float;
  lambda1 : Interval.t;
  lambda2 : Interval.t;
}

let default_params =
  {
    mu1 = 5.;
    mu2 = 1.;
    phi1 = 1.;
    phi2 = 1.;
    gamma1 = 0.5;
    gamma2 = 0.5;
    (* The paper does not report C, N1, N2.  With gamma = 1/2, c = 0.5
       puts the network near critical load, reproducing the qualitative
       queue dynamics of Fig. 7; c = 1 would leave the machine
       underloaded and every queue near zero. *)
    capacity = 0.5;
    a1 = 1.;
    a2 = 2.;
    lambda1 = Interval.make 1. 7.;
    lambda2 = Interval.make 2. 3.;
  }

let with_phi1 p phi1 = { p with phi1 }

let equivalent_poisson_rate ~a ~lambda = 1. /. ((1. /. a) +. (1. /. lambda))

let poisson_theta p =
  Optim.Box.of_intervals
    [
      Interval.monotone
        (fun l -> equivalent_poisson_rate ~a:p.a1 ~lambda:l)
        p.lambda1;
      Interval.monotone
        (fun l -> equivalent_poisson_rate ~a:p.a2 ~lambda:l)
        p.lambda2;
    ]

let map_theta p = Optim.Box.of_intervals [ p.lambda1; p.lambda2 ]

let x0_poisson = [| 0.1; 0.1 |]

let x0_map = [| 0.1; 0.9; 0.1; 0.9 |]

(* GPS service rate of class i on the density scale; the weighted
   backlog vanishing means an empty system, hence no service.  Queue
   densities are clamped into [0, 1] so that states driven marginally
   outside the simplex by numerical integration cannot make the GPS
   ratio (whose derivative blows up at the origin) misbehave.  The
   denominator is floored at the guard threshold so that the quotient
   is well-defined (and interval-certifiable) on the whole box — below
   the threshold the Ite selects 0, so the floor never changes the
   value. *)
let service p ~q1 ~q2 i =
  let open Expr in
  let clamp q = min_ (const 1.) (max_ (const 0.) q) in
  let q1 = clamp q1 and q2 = clamp q2 in
  let backlog =
    (const (p.phi1 *. p.gamma1) *: q1) +: (const (p.phi2 *. p.gamma2) *: q2)
  in
  let num =
    match i with
    | 1 -> const (p.mu1 *. p.capacity *. p.phi1 *. p.gamma1) *: q1
    | 2 -> const (p.mu2 *. p.capacity *. p.phi2 *. p.gamma2) *: q2
    | _ -> invalid_arg "Gps.service: class must be 1 or 2"
  in
  Ite
    ( backlog -: const 1e-12,
      const 0.,
      num /: max_ backlog (const 1e-12) )

(* Poisson layout: x = (q1, q2); count step of class i is 1/gamma_i *)
let make_poisson p =
  let open Expr in
  let tr name change rate = { Model.name; change; rate } in
  let arrival i =
    let gamma = if i = 1 then p.gamma1 else p.gamma2 in
    theta (i - 1) *: const gamma
    *: max_ (const 0.) (const 1. -: var (i - 1))
  in
  (* service already carries the gamma_i factor of the density rate *)
  let serve i = service p ~q1:(var 0) ~q2:(var 1) i in
  Model.make ~name:"gps-poisson" ~var_names:[| "Q1"; "Q2" |]
    ~theta_names:[| "lambda'1"; "lambda'2" |] ~theta:(poisson_theta p)
    ~x0:x0_poisson
    [
      tr "arrival-1" [| 1. /. p.gamma1; 0. |] (arrival 1);
      tr "service-1" [| -1. /. p.gamma1; 0. |] (serve 1);
      tr "arrival-2" [| 0.; 1. /. p.gamma2 |] (arrival 2);
      tr "service-2" [| 0.; -1. /. p.gamma2 |] (serve 2);
    ]

(* MAP layout: x = (q1, d1, q2, d2); e_i = 1 - q_i - d_i *)
let make_map p =
  let open Expr in
  let tr name change rate = { Model.name; change; rate } in
  let q i = var ((2 * (i - 1)) + 0) in
  let d i = var ((2 * (i - 1)) + 1) in
  let e i = max_ (const 0.) (const 1. -: q i -: d i) in
  let activation i gamma ai = const (ai *. gamma) *: e i in
  let arrival i gamma = theta (i - 1) *: const gamma *: max_ (const 0.) (d i) in
  let serve i = service p ~q1:(q 1) ~q2:(q 2) i in
  let step i gamma ~dq ~dd =
    let v = Vec.zeros 4 in
    v.((2 * (i - 1)) + 0) <- dq /. gamma;
    v.((2 * (i - 1)) + 1) <- dd /. gamma;
    v
  in
  Model.make ~name:"gps-map"
    ~var_names:[| "Q1"; "D1"; "Q2"; "D2" |]
    ~theta_names:[| "lambda1"; "lambda2" |] ~theta:(map_theta p) ~x0:x0_map
    [
      tr "activate-1" (step 1 p.gamma1 ~dq:0. ~dd:1.) (activation 1 p.gamma1 p.a1);
      tr "arrival-1" (step 1 p.gamma1 ~dq:1. ~dd:(-1.)) (arrival 1 p.gamma1);
      tr "service-1" (step 1 p.gamma1 ~dq:(-1.) ~dd:0.) (serve 1);
      tr "activate-2" (step 2 p.gamma2 ~dq:0. ~dd:1.) (activation 2 p.gamma2 p.a2);
      tr "arrival-2" (step 2 p.gamma2 ~dq:1. ~dd:(-1.)) (arrival 2 p.gamma2);
      tr "service-2" (step 2 p.gamma2 ~dq:(-1.) ~dd:0.) (serve 2);
    ]

let poisson_di p = Umf_diffinc.Di.of_model (make_poisson p)

let map_di p = Umf_diffinc.Di.of_model (make_map p)

let total_queue layout x =
  match layout with
  | `Poisson -> x.(0) +. x.(1)
  | `Map -> x.(0) +. x.(2)
