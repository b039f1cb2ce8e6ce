open Umf_numerics
open Umf_meanfield
open Umf_diffinc
module Obs = Umf_obs.Obs

(* ẋ = θ, θ ∈ [-1, 1] *)
let integrator_di () = Fixture.di ~lo:[| -1. |] ~hi:[| 1. |] [| Expr.theta 0 |]

(* coupled linear system: ẋ1 = -x1 + x2, ẋ2 = -x2 + θ, θ ∈ [1, 2] *)
let coupled_di () =
  let open Expr in
  Fixture.di ~lo:[| 1. |] ~hi:[| 2. |]
    [| var 1 -: var 0; theta 0 -: var 1 |]

let test_integrator_hull_exact () =
  let di = integrator_di () in
  let h = Hull.bounds di ~x0:[| 0. |] ~horizon:2. ~dt:0.01 in
  let lo = Hull.lower_at h 2. and hi = Hull.upper_at h 2. in
  Alcotest.(check (float 1e-6)) "lower -T" (-2.) lo.(0);
  Alcotest.(check (float 1e-6)) "upper +T" 2. hi.(0)

let test_hull_ordered () =
  let di = coupled_di () in
  let h = Hull.bounds di ~x0:[| 0.5; 0.5 |] ~horizon:5. ~dt:0.01 in
  Array.iteri
    (fun i t ->
      ignore t;
      Alcotest.(check bool) "lower <= upper" true (Vec.le h.Hull.lower.(i) h.Hull.upper.(i)))
    h.Hull.times

let test_hull_contains_constant_solutions () =
  let di = coupled_di () in
  let h = Hull.bounds di ~x0:[| 0.5; 0.5 |] ~horizon:4. ~dt:0.01 in
  List.iter
    (fun theta ->
      let traj =
        Di.integrate_constant di ~theta:[| theta |] ~x0:[| 0.5; 0.5 |] ~horizon:4. ~dt:0.01
      in
      List.iter
        (fun t ->
          let x = Ode.Traj.at traj t in
          Alcotest.(check bool)
            (Printf.sprintf "theta=%g inside at t=%g" theta t)
            true
            (Hull.contains ~tol:1e-4 h t (Vec.add x [| 0.; 0. |])))
        [ 0.5; 1.; 2.; 3.9 ])
    [ 1.; 1.3; 1.7; 2. ]

let test_hull_contains_switching_solutions () =
  let di = coupled_di () in
  let h = Hull.bounds di ~x0:[| 0.5; 0.5 |] ~horizon:4. ~dt:0.01 in
  let rng = Rng.create 5 in
  let states = Reach.sample_states di ~x0:[| 0.5; 0.5 |] ~horizon:4. ~n_controls:15 rng in
  List.iter
    (fun x ->
      (* allow integration slack at the boundary *)
      let eps = 1e-6 in
      let lo = Hull.lower_at h 4. and hi = Hull.upper_at h 4. in
      Alcotest.(check bool) "switching solution inside" true
        (Vec.le (Vec.sub lo [| eps; eps |]) x && Vec.le x (Vec.add hi [| eps; eps |])))
    states

let test_width_grows_with_theta_box () =
  let make w =
    Fixture.di ~lo:[| 1. -. w |] ~hi:[| 1. +. w |]
      Expr.[| theta 0 -: var 0 |]
  in
  let width w =
    let h = Hull.bounds (make w) ~x0:[| 0. |] ~horizon:5. ~dt:0.01 in
    (Hull.final_width h).(0)
  in
  let w_small = width 0.1 and w_big = width 0.9 in
  Alcotest.(check bool) "wider theta, wider hull" true (w_big > w_small *. 3.)

let test_clip () =
  let di = integrator_di () in
  let clip = Optim.Box.make [| -0.5 |] [| 0.5 |] in
  let h = Hull.bounds ~clip di ~x0:[| 0. |] ~horizon:3. ~dt:0.01 in
  let lo = Hull.lower_at h 3. and hi = Hull.upper_at h 3. in
  Alcotest.(check (float 1e-9)) "clipped below" (-0.5) lo.(0);
  Alcotest.(check (float 1e-9)) "clipped above" 0.5 hi.(0)

let test_zero_horizon () =
  let di = integrator_di () in
  let h = Hull.bounds di ~x0:[| 0.3 |] ~horizon:0. ~dt:0.01 in
  Alcotest.(check (float 1e-12)) "degenerate" 0.3 (Hull.lower_at h 0.).(0);
  Alcotest.(check (float 1e-12)) "width zero" 0. (Hull.final_width h).(0)

let test_validation () =
  let di = integrator_di () in
  Alcotest.check_raises "dt" (Invalid_argument "Hull.bounds: dt <= 0") (fun () ->
      ignore (Hull.bounds di ~x0:[| 0. |] ~horizon:1. ~dt:0.));
  (* a step count past max_int must not wrap to one step *)
  Alcotest.check_raises "tiny dt"
    (Invalid_argument
       "Hull.bounds: 1e+300 steps (horizon 1, dt 1e-300) do not fit an int")
    (fun () -> ignore (Hull.bounds di ~x0:[| 0. |] ~horizon:1. ~dt:1e-300));
  Alcotest.check_raises "NaN horizon"
    (Invalid_argument
       "Hull.bounds: nan steps (horizon nan, dt 0.01) do not fit an int")
    (fun () ->
      ignore (Hull.bounds di ~x0:[| 0. |] ~horizon:Float.nan ~dt:0.01))

let test_validation_horizon_and_dim () =
  let di = integrator_di () in
  Alcotest.check_raises "negative horizon"
    (Invalid_argument "Hull.bounds: negative horizon") (fun () ->
      ignore (Hull.bounds di ~x0:[| 0. |] ~horizon:(-1.) ~dt:0.01));
  Alcotest.check_raises "infinite horizon"
    (Invalid_argument
       "Hull.bounds: inf steps (horizon inf, dt 0.01) do not fit an int")
    (fun () -> ignore (Hull.bounds di ~x0:[| 0. |] ~horizon:infinity ~dt:0.01));
  (* NaN passes [dt <= 0.]; the step count catches it *)
  Alcotest.check_raises "NaN dt"
    (Invalid_argument
       "Hull.bounds: nan steps (horizon 1, dt nan) do not fit an int")
    (fun () -> ignore (Hull.bounds di ~x0:[| 0. |] ~horizon:1. ~dt:Float.nan));
  Alcotest.check_raises "x0 dimension"
    (Invalid_argument "Hull.bounds: x0 dimension") (fun () ->
      ignore (Hull.bounds di ~x0:[| 0.; 0. |] ~horizon:1. ~dt:0.01))

(* ⌈horizon/dt⌉ equal steps that end exactly at the horizon *)
let test_step_grid () =
  let di = integrator_di () in
  let h = Hull.bounds di ~x0:[| 0. |] ~horizon:1. ~dt:0.3 in
  Alcotest.(check int) "4 steps" 5 (Array.length h.Hull.times);
  Array.iteri
    (fun i t ->
      Alcotest.(check (float 0.)) (Printf.sprintf "t%d" i)
        (0.25 *. float_of_int i) t)
    h.Hull.times;
  Alcotest.(check (float 1e-12)) "upper at the horizon" 1. h.Hull.upper.(4).(0)

(* ẋ2 = −x2 + θ feeds ẋ1 = −x1 + x2 monotonically (a cooperative
   system) and each variable occurs once per coordinate, so the
   interval faces are the face extrema and the hull is exactly the pair
   of constant-θ solutions at θ = 1 and θ = 2:
   x2(t) = θ + (x2(0) − θ)e^−t, x1(t) = θ + (x1(0) − θ)e^−t + (x2(0) − θ)te^−t *)
let test_exact_on_cooperative_linear () =
  let h = Hull.bounds (coupled_di ()) ~x0:[| 0.5; 0.5 |] ~horizon:3. ~dt:0.01 in
  let exact th t =
    let e = Float.exp (-.t) in
    [| th +. ((0.5 -. th) *. e) +. ((0.5 -. th) *. t *. e); th +. ((0.5 -. th) *. e) |]
  in
  List.iter
    (fun t ->
      let lo = Hull.lower_at h t and hi = Hull.upper_at h t in
      Array.iteri
        (fun i v ->
          Alcotest.(check (float 1e-8))
            (Printf.sprintf "lower x%d at t=%g" (i + 1) t) v lo.(i);
          Alcotest.(check (float 1e-8))
            (Printf.sprintf "upper x%d at t=%g" (i + 1) t)
            (exact 2. t).(i) hi.(i))
        (exact 1. t))
    [ 0.5; 1.; 2.; 3. ]

(* a point Θ leaves nothing to bound: the hull stays degenerate and is
   the RK4 solution at that θ *)
let test_point_theta_collapses () =
  let open Expr in
  let di =
    Fixture.di ~lo:[| 1.5 |] ~hi:[| 1.5 |]
      [|
        neg (theta 0 *: var 0 *: var 1);
        (theta 0 *: var 0 *: var 1) -: var 1;
      |]
  in
  let x0 = [| 0.7; 0.3 |] in
  let h = Hull.bounds di ~x0 ~horizon:2. ~dt:0.01 in
  Array.iteri
    (fun i lo ->
      Alcotest.(check bool)
        (Printf.sprintf "degenerate at step %d" i)
        true
        (lo = h.Hull.upper.(i)))
    h.Hull.lower;
  let traj = Di.integrate_constant di ~theta:[| 1.5 |] ~x0 ~horizon:2. ~dt:0.01 in
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "the solution at t=%g" t)
        true
        (Vec.approx_equal ~tol:1e-12 (Ode.Traj.at traj t) (Hull.lower_at h t)))
    [ 0.5; 1.; 1.5; 2. ]

(* a smaller Θ gives a hull inside the larger one's (cooperative
   system, so both are exact) *)
let test_nested_theta_boxes () =
  let open Expr in
  let hull lo hi =
    Hull.bounds
      (Fixture.di ~lo:[| lo |] ~hi:[| hi |] [| var 1 -: var 0; theta 0 -: var 1 |])
      ~x0:[| 0.5; 0.5 |] ~horizon:3. ~dt:0.01
  in
  let outer = hull 1. 2. and inner = hull 1.2 1.8 in
  let slack = [| 1e-9; 1e-9 |] in
  Array.iteri
    (fun k lo ->
      Alcotest.(check bool)
        (Printf.sprintf "nested at step %d" k)
        true
        (Vec.le (Vec.sub outer.Hull.lower.(k) slack) lo
        && Vec.le inner.Hull.upper.(k) (Vec.add outer.Hull.upper.(k) slack)))
    inner.Hull.lower

(* the names the ledger reads: one span, the step count, 2d face
   bounds per right-hand-side call (4 per RK4 step) and the final
   width; observing changes no bit of the answer *)
let test_obs_probes () =
  let di = coupled_di () in
  let agg = Obs.Agg.create () in
  let observed =
    Hull.bounds ~obs:(Obs.make ~agg ()) di ~x0:[| 0.5; 0.5 |] ~horizon:2.
      ~dt:0.01
  in
  let plain = Hull.bounds di ~x0:[| 0.5; 0.5 |] ~horizon:2. ~dt:0.01 in
  Alcotest.(check bool) "identical lower" true
    (observed.Hull.lower = plain.Hull.lower);
  Alcotest.(check bool) "identical upper" true
    (observed.Hull.upper = plain.Hull.upper);
  Alcotest.(check (float 0.)) "hull.steps" 200. (Obs.Agg.counter agg "hull.steps");
  Alcotest.(check (float 0.)) "hull.face_evals" (200. *. 4. *. 4.)
    (Obs.Agg.counter agg "hull.face_evals");
  (match Obs.Agg.gauge_stat agg "hull.final_width" with
  | Some g ->
      Alcotest.(check (float 0.)) "hull.final_width"
        (Vec.norm_inf (Hull.final_width plain))
        g.Obs.Agg.last
  | None -> Alcotest.fail "no hull.final_width gauge");
  match Obs.Agg.span_stat agg "hull.bounds" with
  | Some s -> Alcotest.(check int) "one hull.bounds span" 1 s.Obs.Agg.calls
  | None -> Alcotest.fail "no hull.bounds span"

(* ẋ = x² from 1 blows up at t = 1: [check] stops there, without it
   the bounds run to infinity *)
let test_check_sanitizer () =
  let di = Fixture.di ~lo:[| 0. |] ~hi:[| 1. |] Expr.[| var 0 *: var 0 |] in
  let run check = Hull.bounds ~check di ~x0:[| 1. |] ~horizon:2. ~dt:0.01 in
  let h = run false in
  Alcotest.(check bool) "unchecked: infinite upper bound" true
    (not (Float.is_finite (Hull.final_width h).(0)));
  match run true with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
      let prefix = "Hull.bounds: non-finite" in
      Alcotest.(check string) "message" prefix
        (String.sub msg 0 (String.length prefix))

let test_interpolation_and_contains () =
  let h = Hull.bounds (integrator_di ()) ~x0:[| 0. |] ~horizon:2. ~dt:0.5 in
  Alcotest.(check (float 1e-12)) "between grid times" (-0.75)
    (Hull.lower_at h 0.75).(0);
  Alcotest.(check (float 1e-12)) "past the horizon" 2. (Hull.upper_at h 3.).(0);
  Alcotest.(check (float 1e-12)) "before 0" 0. (Hull.upper_at h (-1.)).(0);
  let just_out = [| 1. +. 5e-7 |] in
  Alcotest.(check bool) "inside the default slack" true (Hull.contains h 1. just_out);
  Alcotest.(check bool) "outside with no slack" false
    (Hull.contains ~tol:0. h 1. just_out)

let test_final_certs () =
  let h = Hull.bounds (integrator_di ()) ~x0:[| 0. |] ~horizon:2. ~dt:0.01 in
  let lo = h.Hull.lower.(200).(0) and hi = h.Hull.upper.(200).(0) in
  let c = (Hull.final_certs h).(0) in
  Alcotest.(check (float 0.)) "lower end" lo (Interval.lo c.Cert.value);
  Alcotest.(check (float 0.)) "upper end" hi (Interval.hi c.Cert.value);
  Alcotest.(check bool) "brackets both extremal solutions" true
    (Cert.brackets c (-2.) && Cert.brackets c 2.);
  let w = (Hull.final_certs ~rounding:0.1 h).(0) in
  Alcotest.(check (float 1e-12)) "widened below" (lo -. 0.1) (Interval.lo w.Cert.value);
  Alcotest.(check (float 1e-12)) "widened above" (hi +. 0.1) (Interval.hi w.Cert.value);
  Alcotest.(check (float 0.)) "on the rounding line" 0.1 w.Cert.budget.Cert.rounding

let test_summary_line () =
  let di = integrator_di () in
  Alcotest.(check string) "200 steps"
    "hull: value 4 (max final width), 200 iterations, horizon 2, dim 1"
    (Hull.traj_to_string (Hull.bounds di ~x0:[| 0. |] ~horizon:2. ~dt:0.01));
  Alcotest.(check string) "one step"
    "hull: value 0 (max final width), 1 iteration, horizon 0, dim 1"
    (Hull.traj_to_string (Hull.bounds di ~x0:[| 0. |] ~horizon:0. ~dt:0.01))

(* constant-θ solutions at every Θ vertex and the midpoint, and a
   seeded cloud of switching solutions, inside the hull at horizon 2
   with the 1e-6 slack.  The clip box is invariant for the exact flow,
   but a fixed-step solution overshoots a discontinuous rate guard
   (bikenet's empty-station Ite) by up to θ·dt, so with a clip box the
   reference states are compared after projection onto it. *)
let check_over_approximation ?clip name di ~x0 =
  let horizon = 2. and dt = 0.01 in
  let h = Hull.bounds ?clip di ~x0 ~horizon ~dt in
  let project x =
    match clip with Some b -> Optim.Box.clamp b x | None -> x
  in
  let inside h t xs =
    List.for_all (fun x -> Hull.contains ~tol:1e-6 h t (project x)) xs
  in
  let th = di.Di.theta in
  List.iter
    (fun theta ->
      let traj = Di.integrate_constant di ~theta ~x0 ~horizon ~dt in
      List.iter
        (fun t ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: theta %s inside at t=%g" name
               (Vec.to_string theta) t)
            true
            (inside h t [ Ode.Traj.at traj t ]))
        [ 0.5; 1.; 1.5; 2. ])
    (Optim.Box.midpoint th :: Optim.Box.vertices th);
  let cloud =
    Reach.sample_states di ~x0 ~horizon ~n_controls:24 (Rng.create 11)
  in
  Alcotest.(check bool) (name ^ ": reach cloud inside") true
    (inside h horizon cloud)

let test_registry_over_approximation (name, m) () =
  check_over_approximation ~clip:(Model.clip m) name (Di.of_model m)
    ~x0:(Model.x0 m)

(* x1 occurs twice in f0, so interval arithmetic's dependency problem
   makes the face bounds strictly looser than the face extrema *)
let twice_model () =
  let open Expr in
  Fixture.model
    ~theta:(Optim.Box.make [| 1. |] [| 2. |])
    [|
      (var 1 *: (const 1. -: var 1)) -: (theta 0 *: var 0);
      (theta 0 *: (const 1. -: var 1)) -: var 1;
    |]

let test_repeated_variable_looser_but_sound () =
  let m = twice_model () in
  let lo = [| 0.3; 0.2 |] and hi = [| 0.6; 0.8 |] in
  (* the hull's upper face of f0: x0 = hi0, x1 free, θ free *)
  let iv l h = Interval.make l h in
  let bound =
    Interval.hi
      (Model.drift_interval m
         ~x:[| iv hi.(0) hi.(0); iv lo.(1) hi.(1) |]
         ~th:[| iv 1. 2. |]).(0)
  in
  (* a sampled face maximum (vertices, a 2-point grid, 8 descent
     sweeps) as the oracle: it can only fall short of the extremum *)
  let _, sampled =
    Optim.maximize_box ~grid:2 ~refine_iters:8
      (fun z -> (Model.drift m [| z.(0); z.(1) |] [| z.(2) |]).(0))
      (Optim.Box.make [| hi.(0); lo.(1); 1. |] [| hi.(0); hi.(1); 2. |])
  in
  Alcotest.(check bool)
    (Printf.sprintf "interval bound %g strictly beyond sampled %g" bound
       sampled)
    true (bound > sampled);
  check_over_approximation "twice" (Di.of_model m) ~x0:[| 0.5; 0.3 |]

(* soundness property on a family of multilinear 2-D systems *)
let prop_hull_sound_multilinear =
  let gen = QCheck.Gen.(pair (float_range 0.2 1.5) (float_range 0.2 1.5)) in
  QCheck.Test.make ~name:"hull contains solutions (multilinear)" ~count:15
    (QCheck.make gen) (fun (a, b) ->
      let di =
        let open Expr in
        Fixture.di ~lo:[| 0.5 |] ~hi:[| 1.5 |]
          [|
            (const a *: (const 1. -: var 0)) -: (theta 0 *: var 0 *: var 1);
            (theta 0 *: var 0 *: var 1) -: (const b *: var 1);
          |]
      in
      let x0 = [| 0.6; 0.3 |] in
      let h = Hull.bounds di ~x0 ~horizon:2. ~dt:0.02 in
      List.for_all
        (fun theta ->
          let traj = Di.integrate_constant di ~theta:[| theta |] ~x0 ~horizon:2. ~dt:0.02 in
          List.for_all
            (fun t ->
              let x = Ode.Traj.at traj t in
              let lo = Hull.lower_at h t and hi = Hull.upper_at h t in
              Vec.le (Vec.sub lo [| 1e-6; 1e-6 |]) x
              && Vec.le x (Vec.add hi [| 1e-6; 1e-6 |]))
            [ 0.5; 1.; 1.5; 2. ])
        [ 0.5; 0.8; 1.2; 1.5 ])

let suites =
  [
    ( "hull",
      [
        Alcotest.test_case "integrator exact" `Quick test_integrator_hull_exact;
        Alcotest.test_case "ordering invariant" `Quick test_hull_ordered;
        Alcotest.test_case "contains constant-theta solutions" `Quick test_hull_contains_constant_solutions;
        Alcotest.test_case "contains switching solutions" `Quick test_hull_contains_switching_solutions;
        Alcotest.test_case "width grows with theta" `Quick test_width_grows_with_theta_box;
        Alcotest.test_case "clipping" `Quick test_clip;
        Alcotest.test_case "zero horizon" `Quick test_zero_horizon;
        Alcotest.test_case "validation" `Quick test_validation;
        Alcotest.test_case "validation: horizon and x0 dimension" `Quick
          test_validation_horizon_and_dim;
        Alcotest.test_case "step grid" `Quick test_step_grid;
        Alcotest.test_case "exact on a cooperative linear system" `Quick
          test_exact_on_cooperative_linear;
        Alcotest.test_case "point theta collapses to the solution" `Quick
          test_point_theta_collapses;
        Alcotest.test_case "nested theta boxes, nested hulls" `Quick
          test_nested_theta_boxes;
        Alcotest.test_case "obs probes" `Quick test_obs_probes;
        Alcotest.test_case "check sanitizer" `Quick test_check_sanitizer;
        Alcotest.test_case "interpolation and containment" `Quick
          test_interpolation_and_contains;
        Alcotest.test_case "final certificates" `Quick test_final_certs;
        Alcotest.test_case "summary line" `Quick test_summary_line;
        Alcotest.test_case "repeated variable: looser, still sound" `Quick
          test_repeated_variable_looser_but_sound;
        QCheck_alcotest.to_alcotest prop_hull_sound_multilinear;
      ] );
    ( "hull over-approximation",
      List.map
        (fun (name, m) ->
          Alcotest.test_case name `Quick (test_registry_over_approximation (name, m)))
        (Umf_models.Registry.all ()) );
  ]
