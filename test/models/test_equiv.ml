(* The model-consistency gate (dune alias @model-consistency).

   Every bundled model used to carry a hand-written closure drift next
   to its symbolic twin; the symbolic IR is now the single source of
   truth and the closures are gone from lib/models.  The closures below
   are golden copies of that deleted code, frozen here as a regression
   reference: the compiled tape drift must keep reproducing them.  Do
   NOT "fix" a golden closure to match the model — if this gate fails,
   the model (or the compiler) changed meaning. *)

open Umf_numerics
open Umf_meanfield
open Umf_models

(* a golden model is a list of (change vector, rate closure); its drift
   is the rate-weighted sum of change vectors, as Model.drift *)
let golden_drift dim transitions x th =
  let v = Vec.zeros dim in
  List.iter
    (fun (change, rate) ->
      let r = rate x th in
      Array.iteri (fun i c -> v.(i) <- v.(i) +. (c *. r)) change)
    transitions;
  v

(* ---------- golden copies of the deleted closure models ---------- *)

let golden_sir () =
  let p = Sir.default_params in
  let infection x (th : Vec.t) =
    (p.Sir.a *. x.(0)) +. (th.(0) *. x.(0) *. x.(1))
  in
  ( Sir.make p,
    [
      ([| -1.; 1. |], infection);
      ([| 0.; -1. |], fun x _ -> p.Sir.b *. x.(1));
      ([| 1.; 0. |], fun x _ -> p.Sir.c *. Float.max 0. (1. -. x.(0) -. x.(1)));
    ] )

let golden_sir3 () =
  let p = Sir.default_params in
  let infection x (th : Vec.t) =
    (p.Sir.a *. x.(0)) +. (th.(0) *. x.(0) *. x.(1))
  in
  ( Sir.make3 p,
    [
      ([| -1.; 1.; 0. |], infection);
      ([| 0.; -1.; 1. |], fun x _ -> p.Sir.b *. x.(1));
      ([| 1.; 0.; -1. |], fun x _ -> p.Sir.c *. x.(2));
    ] )

let golden_sis () =
  let p = Sis.default_params in
  ( Sis.make p,
    [
      ( [| 1. |],
        fun x (th : Vec.t) ->
          let clean = Float.max 0. (1. -. x.(0)) in
          (p.Sis.a *. clean) +. (th.(0) *. x.(0) *. clean) );
      ([| -1. |], fun x _ -> p.Sis.delta *. x.(0));
    ] )

let golden_bikesharing () =
  ( Bikesharing.make Bikesharing.default_params,
    [
      ([| -1. |], fun x (th : Vec.t) -> if x.(0) > 1e-12 then th.(0) else 0.);
      ( [| 1. |],
        fun x (th : Vec.t) -> if x.(0) < 1. -. 1e-12 then th.(1) else 0. );
    ] )

let golden_cholera () =
  let p = Cholera.default_params in
  ( Cholera.make p,
    [
      ( [| -1.; 1.; 0. |],
        fun x (th : Vec.t) ->
          (p.Cholera.a *. x.(0)) +. (th.(0) *. x.(0) *. x.(2)) );
      ([| 0.; -1.; 0. |], fun x _ -> p.Cholera.gamma *. x.(1));
      ( [| 1.; 0.; 0. |],
        fun x _ -> p.Cholera.rho *. Float.max 0. (1. -. x.(0) -. x.(1)) );
      ([| 0.; 0.; 1. |], fun x _ -> p.Cholera.xi *. x.(1));
      ([| 0.; 0.; -1. |], fun x _ -> p.Cholera.delta *. x.(2));
    ] )

(* the deleted float GPS service rate, clamp and backlog guard included *)
let gps_service p ~q1 ~q2 i =
  let clamp q = Float.min 1. (Float.max 0. q) in
  let q1 = clamp q1 and q2 = clamp q2 in
  let backlog =
    (p.Gps.phi1 *. p.Gps.gamma1 *. q1) +. (p.Gps.phi2 *. p.Gps.gamma2 *. q2)
  in
  if backlog <= 1e-12 then 0.
  else if i = 1 then
    p.Gps.mu1 *. p.Gps.capacity *. p.Gps.phi1 *. p.Gps.gamma1 *. q1 /. backlog
  else
    p.Gps.mu2 *. p.Gps.capacity *. p.Gps.phi2 *. p.Gps.gamma2 *. q2 /. backlog

let golden_gps_poisson () =
  let p = Gps.default_params in
  let arrival i gamma x (th : Vec.t) =
    th.(i - 1) *. gamma *. Float.max 0. (1. -. x.(i - 1))
  in
  let serve i x _ = gps_service p ~q1:x.(0) ~q2:x.(1) i in
  ( Gps.make_poisson p,
    [
      ([| 1. /. p.Gps.gamma1; 0. |], arrival 1 p.Gps.gamma1);
      ([| -1. /. p.Gps.gamma1; 0. |], serve 1);
      ([| 0.; 1. /. p.Gps.gamma2 |], arrival 2 p.Gps.gamma2);
      ([| 0.; -1. /. p.Gps.gamma2 |], serve 2);
    ] )

let golden_gps_map () =
  let p = Gps.default_params in
  let qi i (x : Vec.t) = x.(2 * (i - 1)) in
  let di_ i (x : Vec.t) = x.((2 * (i - 1)) + 1) in
  let ei i x = Float.max 0. (1. -. qi i x -. di_ i x) in
  let activation i gamma ai x _ = ai *. gamma *. ei i x in
  let arrival i gamma x (th : Vec.t) =
    th.(i - 1) *. gamma *. Float.max 0. (di_ i x)
  in
  let serve i x _ = gps_service p ~q1:(qi 1 x) ~q2:(qi 2 x) i in
  let step i gamma ~dq ~dd =
    let v = Vec.zeros 4 in
    v.(2 * (i - 1)) <- dq /. gamma;
    v.((2 * (i - 1)) + 1) <- dd /. gamma;
    v
  in
  let g1 = p.Gps.gamma1 and g2 = p.Gps.gamma2 in
  ( Gps.make_map p,
    [
      (step 1 g1 ~dq:0. ~dd:1., activation 1 g1 p.Gps.a1);
      (step 1 g1 ~dq:1. ~dd:(-1.), arrival 1 g1);
      (step 1 g1 ~dq:(-1.) ~dd:0., serve 1);
      (step 2 g2 ~dq:0. ~dd:1., activation 2 g2 p.Gps.a2);
      (step 2 g2 ~dq:1. ~dd:(-1.), arrival 2 g2);
      (step 2 g2 ~dq:(-1.) ~dd:0., serve 2);
    ] )

let golden_loadbalance () =
  let p = Loadbalance.default_params in
  let kk = p.Loadbalance.k_max and d = p.Loadbalance.d in
  let clamp01 v = Float.min 1. (Float.max 0. v) in
  let ipow x n =
    let rec go acc n = if n = 0 then acc else go (acc *. x) (n - 1) in
    go 1. n
  in
  let x_at (x : Vec.t) k =
    if k = 0 then 1. else if k > kk then 0. else clamp01 x.(k - 1)
  in
  let unit k s =
    let v = Vec.zeros kk in
    v.(k - 1) <- s;
    v
  in
  let transitions =
    List.concat_map
      (fun k ->
        [
          ( unit k 1.,
            fun x (th : Vec.t) ->
              th.(0)
              *. Float.max 0. (ipow (x_at x (k - 1)) d -. ipow (x_at x k) d) );
          ( unit k (-1.),
            fun x _ -> Float.max 0. (x_at x k -. x_at x (k + 1)) );
        ])
      (List.init kk (fun i -> i + 1))
  in
  (Loadbalance.make p, transitions)

let golden_bikenetwork p =
  let k = p.Bikenetwork.stations and cap = Bikenetwork.capacity p in
  let z_idx = k in
  let unit i s =
    let v = Vec.zeros (k + 1) in
    v.(i) <- s;
    v
  in
  let departure i =
    ( Vec.add (unit i (-1.)) (unit z_idx 1.),
      fun (x : Vec.t) (th : Vec.t) -> if x.(i) > 1e-12 then th.(i) else 0. )
  in
  let arrival i =
    ( Vec.add (unit i 1.) (unit z_idx (-1.)),
      fun (x : Vec.t) _ ->
        if x.(i) < cap -. 1e-12 then
          p.Bikenetwork.mu *. Float.max 0. x.(z_idx) *. p.Bikenetwork.routing.(i)
        else 0. )
  in
  let rebalances =
    if p.Bikenetwork.rebalance = 0. then []
    else
      List.concat_map
        (fun j ->
          List.filter_map
            (fun i ->
              if i = j then None
              else
                Some
                  ( Vec.add (unit j (-1.)) (unit i 1.),
                    fun (x : Vec.t) _ ->
                      let stock = Float.max 0. x.(j) in
                      let room = Float.max 0. (cap -. x.(i)) /. cap in
                      p.Bikenetwork.rebalance *. stock *. room ))
            (List.init k Fun.id))
        (List.init k Fun.id)
  in
  ( Bikenetwork.make p,
    List.init k departure @ List.init k arrival @ rebalances )

let golden_models () =
  [
    ("sir", golden_sir ());
    ("sir3", golden_sir3 ());
    ("sis", golden_sis ());
    ("bike", golden_bikesharing ());
    ("cholera", golden_cholera ());
    ("gps-poisson", golden_gps_poisson ());
    ("gps-map", golden_gps_map ());
    ("jsq2", golden_loadbalance ());
    ("bikenet", golden_bikenetwork Bikenetwork.default_params);
    ( "bikenet+rebalance",
      golden_bikenetwork
        (Bikenetwork.with_rebalance Bikenetwork.default_params 0.5) );
  ]

(* ---------- the gate ---------- *)

let n_samples = 40

(* symbolic simplification may reassociate sums, so the match is tight
   but not bit-level *)
let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)

let test_drift_matches_golden () =
  List.iter
    (fun (name, (m, transitions)) ->
      let rng = Rng.create 2016 in
      let dim = Model.dim m in
      for k = 1 to n_samples do
        let x = Optim.Box.sample_uniform rng (Model.clip m) in
        let th = Optim.Box.sample_uniform rng (Model.theta m) in
        let compiled = Model.drift m x th in
        let golden = golden_drift dim transitions x th in
        Array.iteri
          (fun i gi ->
            Alcotest.(check bool)
              (Printf.sprintf "%s drift[%d] sample %d: %g vs golden %g" name i
                 k compiled.(i) gi)
              true
              (close compiled.(i) gi))
          golden
      done)
    (golden_models ())

(* the rates plan, class by class: the k-th rate (at n = 1, the
   density-scaled β) and change vector are the k-th golden transition's.
   This is the one place a rate is evaluated — the finite-N lattice, the
   imprecise chain's vertex rates and the SSA all read it *)
let test_rates_match_golden () =
  List.iter
    (fun (name, (m, transitions)) ->
      let classes = Model.transitions m in
      Alcotest.(check int)
        (name ^ ": one rate per golden transition")
        (List.length transitions) (List.length classes);
      List.iter2
        (fun (tr : Model.transition) (change, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: change vector" name tr.name)
            true
            (Vec.approx_equal ~tol:0. change tr.change))
        classes transitions;
      let rng = Rng.create 2017 in
      for k = 1 to n_samples do
        let x = Optim.Box.sample_uniform rng (Model.clip m) in
        let th = Optim.Box.sample_uniform rng (Model.theta m) in
        let betas = Model.propensities m ~n:1 x th in
        List.iteri
          (fun j (_, rate) ->
            let golden = rate x th in
            Alcotest.(check bool)
              (Printf.sprintf "%s rate %d sample %d: %g vs golden %g" name j k
                 betas.(j) golden)
              true
              (close betas.(j) golden))
          transitions
      done)
    (golden_models ())

(* the compiled tape must agree with the Expr interpreter bit-for-bit
   on every registered model — tape bugs cannot hide behind tolerance *)
let test_tape_matches_interpreter () =
  List.iter
    (fun (name, m) ->
      let rng = Rng.create 7 in
      let exprs = Model.drift_exprs m in
      for k = 1 to n_samples do
        let x = Optim.Box.sample_uniform rng (Model.clip m) in
        let th = Optim.Box.sample_uniform rng (Model.theta m) in
        let compiled = Model.drift m x th in
        Array.iteri
          (fun i e ->
            let interpreted = Expr.eval e ~x ~th in
            Alcotest.(check bool)
              (Printf.sprintf "%s tape[%d] = interpreter, sample %d" name i k)
              true
              (compiled.(i) = interpreted))
          exprs
      done)
    (Registry.all ())

(* jacobians: the compiled tape must agree with the interpreted exact
   symbolic derivative of each drift coordinate *)
let test_jacobian_matches_interpreter () =
  List.iter
    (fun (name, m) ->
      let rng = Rng.create 11 in
      let dim = Model.dim m in
      let jac_exprs =
        Array.map
          (fun fi -> Array.init dim (fun j -> Expr.diff_var fi j))
          (Model.drift_exprs m)
      in
      for k = 1 to 10 do
        let x = Optim.Box.sample_uniform rng (Model.clip m) in
        let th = Optim.Box.sample_uniform rng (Model.theta m) in
        let jac = Umf_reference.Jacobian.of_model m x th in
        Array.iteri
          (fun i row ->
            Array.iteri
              (fun j e ->
                let interpreted = Expr.eval e ~x ~th in
                Alcotest.(check bool)
                  (Printf.sprintf "%s jac[%d,%d] sample %d" name i j k)
                  true
                  (close (Mat.get jac i j) interpreted))
              row)
          jac_exprs
      done)
    (Registry.all ())

(* the interval drift hull over (clip, Θ) must contain every pointwise
   drift value sampled inside the boxes *)
let test_interval_drift_sound () =
  List.iter
    (fun (name, m) ->
      let clip = Model.clip m and theta = Model.theta m in
      let to_intervals (box : Optim.Box.t) =
        Array.init (Optim.Box.dim box) (fun i ->
            Interval.make box.Optim.Box.lo.(i) box.Optim.Box.hi.(i))
      in
      let enc =
        Model.drift_interval m ~x:(to_intervals clip) ~th:(to_intervals theta)
      in
      let rng = Rng.create 13 in
      for k = 1 to n_samples do
        let x = Optim.Box.sample_uniform rng clip in
        let th = Optim.Box.sample_uniform rng theta in
        let f = Model.drift m x th in
        Array.iteri
          (fun i fi ->
            let tol = 1e-9 *. Float.max 1. (Float.abs fi) in
            Alcotest.(check bool)
              (Printf.sprintf "%s drift[%d] inside hull, sample %d" name i k)
              true
              (Interval.lo enc.(i) -. tol <= fi
              && fi <= Interval.hi enc.(i) +. tol))
          f
      done)
    (Registry.all ())

let suites =
  [
    ( "model-consistency",
      [
        Alcotest.test_case "compiled drift = golden closures" `Quick
          test_drift_matches_golden;
        Alcotest.test_case "rates plan = golden rate closures" `Quick
          test_rates_match_golden;
        Alcotest.test_case "tape drift = Expr interpreter" `Quick
          test_tape_matches_interpreter;
        Alcotest.test_case "tape jacobian = interpreted derivative" `Quick
          test_jacobian_matches_interpreter;
        Alcotest.test_case "interval drift encloses samples" `Quick
          test_interval_drift_sound;
      ] );
  ]
