(* The high-level Analysis API wiring: the spec record consumed by all
   entry points and the named result records. *)
open Umf

let p = Sir.default_params

let model = Sir.make p

let times = [| 0.; 1.; 2. |]

let test_spec_validation () =
  Alcotest.check_raises "horizon <= 0"
    (Invalid_argument "Analysis.spec: need finite horizon > 0") (fun () ->
      ignore (Analysis.spec ~horizon:0. model));
  (* NaN passes a [x <= 0.] test; every non-finite value is refused *)
  List.iter
    (fun (name, mk) ->
      List.iter
        (fun v ->
          Alcotest.check_raises
            (Printf.sprintf "%s = %g" name v)
            (Invalid_argument
               (Printf.sprintf "Analysis.spec: need finite %s > 0" name))
            (fun () -> ignore (mk v)))
        [ Float.nan; infinity; -1. ])
    [
      ("horizon", fun v -> Analysis.spec ~horizon:v model);
      ("dt", fun v -> Analysis.spec ~dt:v model);
      ("tol", fun v -> Analysis.spec ~tol:v model);
    ];
  Alcotest.check_raises "steps < 1"
    (Invalid_argument "Analysis.spec: need steps >= 1") (fun () ->
      ignore (Analysis.spec ~steps:0 model));
  Alcotest.check_raises "grid < 2"
    (Invalid_argument "Analysis.spec: need grid >= 2") (fun () ->
      ignore (Analysis.spec ~scenario:(Analysis.Uncertain 1) model))

let test_spec_theta_override () =
  let box = Optim.Box.make [| 2. |] [| 3. |] in
  let s = Analysis.spec ~theta:box model in
  let di = Analysis.di_of_spec s in
  Alcotest.(check bool) "theta box overridden" true (di.Di.theta == box);
  let s0 = Analysis.spec model in
  let di0 = Analysis.di_of_spec s0 in
  Alcotest.(check (float 1e-12))
    "default box from model" p.Sir.theta_min
    di0.Di.theta.Optim.Box.lo.(0)

let test_transient_bounds_imprecise () =
  let s = Analysis.spec ~steps:150 model in
  let b = Analysis.transient_bounds ~times s ~x0:Sir.x0 ~coord:1 in
  Alcotest.(check int) "coord recorded" 1 b.Analysis.coord;
  Alcotest.(check (float 1e-12)) "t=0 is x0 (lo)" 0.3 b.Analysis.lower.(0);
  Alcotest.(check (float 1e-12)) "t=0 is x0 (hi)" 0.3 b.Analysis.upper.(0);
  Array.iteri
    (fun i lo ->
      Alcotest.(check bool) "ordered" true (lo <= b.Analysis.upper.(i)))
    b.Analysis.lower

let test_transient_bounds_default_times () =
  let s = Analysis.spec ~steps:60 ~horizon:2. model in
  let b = Analysis.transient_bounds s ~x0:Sir.x0 ~coord:1 in
  Alcotest.(check int) "11 default sample times" 11
    (Array.length b.Analysis.times);
  Alcotest.(check (float 1e-12)) "last time is horizon" 2.
    b.Analysis.times.(10)

let test_transient_bounds_scenarios_nested () =
  let s = Analysis.spec ~steps:150 model in
  let imprecise = Analysis.transient_bounds ~times s ~x0:Sir.x0 ~coord:1 in
  let su = Analysis.spec ~scenario:(Analysis.Uncertain 9) model in
  let uncertain = Analysis.transient_bounds ~times su ~x0:Sir.x0 ~coord:1 in
  Array.iteri
    (fun i ulo ->
      let uhi = uncertain.Analysis.upper.(i) in
      let ilo = imprecise.Analysis.lower.(i)
      and ihi = imprecise.Analysis.upper.(i) in
      Alcotest.(check bool) "uncertain inside imprecise" true
        (ilo <= ulo +. 1e-4 && uhi <= ihi +. 1e-4))
    uncertain.Analysis.lower

let test_hull_bounds_wrapper () =
  let s = Analysis.spec ~horizon:2. model in
  let h = Analysis.hull_bounds s ~x0:Sir.x0 in
  Alcotest.(check bool) "hull contains x0 at 0" true (Hull.contains h 0. Sir.x0);
  (* always clipped to the model's state box *)
  let clip = Model.clip model in
  Array.iteri
    (fun k lo ->
      Alcotest.(check bool) "hull inside the clip box" true
        (Vec.le clip.Optim.Box.lo lo && Vec.le h.Hull.upper.(k) clip.Optim.Box.hi))
    h.Hull.lower

(* the spec's dt and Θ override reach the hull *)
let test_hull_bounds_spec () =
  let s = Analysis.spec ~horizon:1. ~dt:0.3 model in
  let h = Analysis.hull_bounds s ~x0:Sir.x0 in
  Alcotest.(check int) "ceil(horizon/dt) steps" 5 (Array.length h.Hull.times);
  let th = (Model.theta model).Optim.Box.lo.(0) in
  let point = Optim.Box.make [| th |] [| th |] in
  let wide = Analysis.hull_bounds (Analysis.spec ~horizon:2. model) ~x0:Sir.x0 in
  let narrow =
    Analysis.hull_bounds (Analysis.spec ~theta:point ~horizon:2. model) ~x0:Sir.x0
  in
  Alcotest.(check bool) "a point theta box gives a narrower hull" true
    (Vec.norm_inf (Hull.final_width narrow) < Vec.norm_inf (Hull.final_width wide))

(* a dt that passes the spec but makes too many steps to count is
   refused by the hull, not run as one step over the horizon *)
let test_hull_bounds_tiny_dt () =
  let s = Analysis.spec ~horizon:1. ~dt:1e-300 model in
  Alcotest.check_raises "too many steps"
    (Invalid_argument
       "Hull.bounds: 1e+300 steps (horizon 1, dt 1e-300) do not fit an int")
    (fun () -> ignore (Analysis.hull_bounds s ~x0:Sir.x0))

let test_steady_state_region () =
  let s = Analysis.spec model in
  let r = Analysis.steady_state_region_2d ~x_start:Sir.x0 s in
  Alcotest.(check bool) "non-trivial region" true (r.Analysis.area > 0.01);
  Alcotest.(check (float 1e-12))
    "area matches birkhoff"
    (Birkhoff.area r.Analysis.birkhoff)
    r.Analysis.area

let test_stationary_cloud_and_inclusion () =
  let s = Analysis.spec ~horizon:40. model in
  let r = Analysis.steady_state_region_2d ~x_start:Sir.x0 s in
  let cloud =
    Analysis.stationary_cloud s ~n:500 ~x0:Sir.x0
      ~policy:(Sir.policy_theta1 p) ~warmup:10. ~samples:50 ~seed:1
  in
  Alcotest.(check int) "sample count" 50 (Array.length cloud.Analysis.states);
  Alcotest.(check int) "time per sample" 50 (Array.length cloud.Analysis.times);
  let incl =
    Analysis.inclusion_fraction ~tol:3e-3 s r cloud.Analysis.states
  in
  Alcotest.(check int) "total recorded" 50 incl.Analysis.total;
  Alcotest.(check (float 1e-12))
    "fraction consistent"
    (float_of_int incl.Analysis.inside /. 50.)
    incl.Analysis.fraction;
  Alcotest.(check bool) "strict <= slack fraction" true
    (incl.Analysis.strict <= incl.Analysis.fraction);
  Alcotest.(check bool) "mostly inside" true (incl.Analysis.fraction > 0.6)

let test_mean_exceedance_semantics () =
  let s = Analysis.spec model in
  let r = Analysis.steady_state_region_2d ~x_start:Sir.x0 s in
  let b = r.Analysis.birkhoff in
  (* interior points contribute zero exceedance *)
  let cx, cy = Geometry.centroid b.Birkhoff.polygon in
  let interior = Analysis.mean_exceedance s r [| [| cx; cy |] |] in
  Alcotest.(check (float 1e-12)) "interior exceedance" 0. interior.Analysis.mean;
  Alcotest.(check (float 1e-12)) "interior worst" 0. interior.Analysis.worst;
  (* a point pushed distance d outside contributes ~d *)
  let (_, _), (xmax, _) = Geometry.bounding_box b.Birkhoff.polygon in
  let outside = [| xmax +. 0.1; cy |] in
  let e = (Analysis.mean_exceedance s r [| outside |]).Analysis.mean in
  Alcotest.(check bool)
    (Printf.sprintf "outside exceedance %.4f near 0.1" e)
    true
    (e > 0.05 && e < 0.2);
  (* averaging over one inside and one outside point halves the mean
     but keeps the worst *)
  let half = Analysis.mean_exceedance s r [| [| cx; cy |]; outside |] in
  Alcotest.(check (float 1e-9)) "mean over samples" (e /. 2.) half.Analysis.mean;
  Alcotest.(check (float 1e-9)) "worst over samples" e half.Analysis.worst

let test_safety_on_population_model () =
  (* end-to-end: Safety over a Di derived from the model *)
  let di = Di.of_model model in
  match
    Safety.verify ~steps:150 ~check_points:6 di ~x0:Sir.x0 ~horizon:4.
      [ Safety.le ~coord:1 ~dim:2 0.9 ]
  with
  | Safety.Safe margin -> Alcotest.(check bool) "trivially safe" true (margin > 0.5)
  | Safety.Violated _ -> Alcotest.fail "x_I <= 0.9 cannot be violated"

let test_stationary_cloud_validation () =
  let s = Analysis.spec ~horizon:5. model in
  Alcotest.check_raises "warmup >= horizon"
    (Invalid_argument "Analysis.stationary_cloud: warmup >= horizon") (fun () ->
      ignore
        (Analysis.stationary_cloud s ~n:10 ~x0:Sir.x0
           ~policy:(Sir.policy_theta1 p) ~warmup:5. ~samples:10 ~seed:1))

(* observability: enabling a spec's obs context must not change any
   numeric result, and must populate the metrics summary *)
let test_obs_metrics_populated () =
  let agg = Obs.Agg.create () in
  let s_obs =
    Analysis.spec ~steps:150 ~obs:(Obs.make ~agg:agg ()) model
  in
  let s_off = Analysis.spec ~steps:150 model in
  let observed = Analysis.transient_bounds ~times s_obs ~x0:Sir.x0 ~coord:1 in
  let plain = Analysis.transient_bounds ~times s_off ~x0:Sir.x0 ~coord:1 in
  Array.iteri
    (fun i lo ->
      Alcotest.(check (float 0.)) "obs on/off lower identical"
        plain.Analysis.lower.(i) lo;
      Alcotest.(check (float 0.)) "obs on/off upper identical"
        plain.Analysis.upper.(i)
        observed.Analysis.upper.(i))
    observed.Analysis.lower;
  Alcotest.(check bool) "off leaves metrics empty" true
    (plain.Analysis.metrics = Analysis.no_metrics);
  let m = observed.Analysis.metrics in
  Alcotest.(check bool) "sweep counter recorded" true
    (match Analysis.metric m "pontryagin.sweeps" with
    | Some v -> v > 0.
    | None -> false);
  Alcotest.(check bool) "solve span recorded" true
    (List.mem_assoc "pontryagin.solve" m.Analysis.spans);
  (* the caller's own sink saw the same probes *)
  Alcotest.(check bool) "caller agg fed too" true
    (Obs.Agg.counter agg "pontryagin.sweeps" > 0.)

let suites =
  [
    ( "analysis",
      [
        Alcotest.test_case "spec validation" `Quick test_spec_validation;
        Alcotest.test_case "spec theta override" `Quick test_spec_theta_override;
        Alcotest.test_case "imprecise transient bounds" `Quick test_transient_bounds_imprecise;
        Alcotest.test_case "default sample times" `Quick test_transient_bounds_default_times;
        Alcotest.test_case "scenario nesting" `Quick test_transient_bounds_scenarios_nested;
        Alcotest.test_case "hull wrapper" `Quick test_hull_bounds_wrapper;
        Alcotest.test_case "hull follows the spec" `Quick test_hull_bounds_spec;
        Alcotest.test_case "hull refuses a tiny dt" `Quick test_hull_bounds_tiny_dt;
        Alcotest.test_case "steady-state region" `Quick test_steady_state_region;
        Alcotest.test_case "stationary cloud" `Slow test_stationary_cloud_and_inclusion;
        Alcotest.test_case "mean exceedance semantics" `Quick test_mean_exceedance_semantics;
        Alcotest.test_case "safety end-to-end" `Quick test_safety_on_population_model;
        Alcotest.test_case "validation" `Quick test_stationary_cloud_validation;
        Alcotest.test_case "obs metrics populated" `Quick test_obs_metrics_populated;
      ] );
  ]
