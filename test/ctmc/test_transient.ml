open Umf_numerics
open Umf_ctmc

(* 0 <-> 1 with rates a=2, b=3: p_0(t) has closed form
   p0(t) = b/(a+b) + (p0(0) - b/(a+b)) exp(-(a+b) t) *)
let a = 2. and b = 3.

let two_state () = Generator.make ~n:2 [ (0, 1, a); (1, 0, b) ]

let closed_form p00 t = (b /. (a +. b)) +. ((p00 -. (b /. (a +. b))) *. Float.exp (-.(a +. b) *. t))

let test_uniformization_closed_form () =
  let g = two_state () in
  List.iter
    (fun t ->
      let p = fst (Transient.uniformization g ~p0:[| 1.; 0. |] ~t) in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p0 at t=%g" t)
        (closed_form 1. t) p.(0))
    [ 0.; 0.1; 0.5; 1.; 5. ]

let test_uniformization_preserves_mass () =
  let g = two_state () in
  let p = fst (Transient.uniformization g ~p0:[| 0.3; 0.7 |] ~t:2.5) in
  Alcotest.(check (float 1e-9)) "mass" 1. (Vec.sum p)

let test_matches_ode () =
  let g = Generator.make ~n:3 [ (0, 1, 1.); (1, 2, 2.); (2, 0, 0.7); (0, 2, 0.2) ] in
  let p0 = [| 1.; 0.; 0. |] in
  let pu = fst (Transient.uniformization g ~p0 ~t:1.7) in
  let po = Umf_reference.Dense.kolmogorov_ode ~dt:1e-4 g ~p0 ~t:1.7 in
  Alcotest.(check bool) "uniformization = ODE" true
    (Vec.approx_equal ~tol:1e-6 pu po)

let test_long_horizon_converges_to_stationary () =
  let g = two_state () in
  let p = fst (Transient.uniformization g ~p0:[| 1.; 0. |] ~t:50.) in
  Alcotest.(check (float 1e-9)) "stationary p0" (b /. (a +. b)) p.(0)

let test_validation () =
  let g = two_state () in
  Alcotest.check_raises "bad distribution"
    (Invalid_argument "Transient: distribution does not sum to 1") (fun () ->
      ignore (Transient.uniformization g ~p0:[| 0.5; 0.2 |] ~t:1.));
  Alcotest.check_raises "negative time"
    (Invalid_argument "Transient.uniformization: t < 0") (fun () ->
      ignore (Transient.uniformization g ~p0:[| 1.; 0. |] ~t:(-1.)))

let test_expectation () =
  let g = two_state () in
  let e =
    Vec.dot (fst (Transient.uniformization g ~p0:[| 1.; 0. |] ~t:0.5)) [| 0.; 1. |]
  in
  Alcotest.(check (float 1e-9)) "E[X_t] = p1(t)" (1. -. closed_form 1. 0.5) e

let test_large_lambda_t () =
  (* stiff chain over a long horizon: exp(-lt) underflows; the
     log-space Poisson recursion must still work *)
  let g = Generator.make ~n:2 [ (0, 1, 500.); (1, 0, 300.) ] in
  let p = fst (Transient.uniformization g ~p0:[| 1.; 0. |] ~t:10.) in
  Alcotest.(check (float 1e-6)) "stationary" (300. /. 800.) p.(0)

let test_large_lambda_t_vs_ode () =
  (* λt ≈ 240: thousands of uniformisation terms against the RK4
     reference *)
  let g =
    Generator.make ~n:3 [ (0, 1, 50.); (1, 2, 30.); (2, 0, 40.); (1, 0, 20.) ]
  in
  let p0 = [| 1.; 0.; 0. |] in
  let pu = fst (Transient.uniformization g ~p0 ~t:3.) in
  let po = Umf_reference.Dense.kolmogorov_ode ~dt:1e-6 g ~p0 ~t:3. in
  Alcotest.(check bool)
    "uniformization = ODE at large Λt" true
    (Vec.approx_equal ~tol:1e-6 pu po)

let test_epsilon_validation () =
  let g = two_state () in
  let bad = Invalid_argument "Transient: epsilon must be in (0, 1)" in
  List.iter
    (fun eps ->
      Alcotest.check_raises
        (Printf.sprintf "epsilon = %g" eps)
        bad
        (fun () ->
          ignore (Transient.uniformization ~epsilon:eps g ~p0:[| 1.; 0. |] ~t:1.)))
    [ 0.; 1.; -0.5; 2. ]

let test_mass_never_renormalised () =
  (* with a loose epsilon the sweep stops early; the returned vector
     must carry the honest partial mass (>= 1 - ε but below 1), not be
     scaled up to 1 *)
  let g = Generator.make ~n:2 [ (0, 1, 500.); (1, 0, 300.) ] in
  let epsilon = 1e-3 in
  let p = fst (Transient.uniformization ~epsilon g ~p0:[| 1.; 0. |] ~t:1.) in
  let mass = Vec.sum p in
  Alcotest.(check bool) "mass >= 1 - eps" true (mass >= 1. -. epsilon);
  Alcotest.(check bool) "mass <= 1" true (mass <= 1. +. 1e-12);
  Alcotest.(check bool) "not renormalised to exactly 1" true (mass < 1.)

let test_large_lambda_t_full_sweep () =
  (* regression for the silent-truncation bug: the old implementation
     capped the sweep at a hard-coded term count and renormalised the
     partial sum to mass 1, hiding arbitrarily large error for large
     λt.  At λt ≈ 8000 the sweep is sized from (ε, λt) alone: it runs
     past λt terms, keeps the raw partial sum and certifies the rest *)
  let g = Generator.make ~n:2 [ (0, 1, 500.); (1, 0, 300.) ] in
  let epsilon = 1e-12 and t = 10. in
  let agg = Umf_obs.Obs.Agg.create () in
  let obs = Umf_obs.Obs.make ~agg () in
  let p, (c : Transient.certificate) =
    Transient.uniformization ~obs ~epsilon g ~p0:[| 1.; 0. |] ~t
  in
  let lt = Sparse.rate (Sparse.forward g) *. t in
  Alcotest.(check bool) "terms beyond λt" true
    (Umf_obs.Obs.Agg.counter agg "ctmc.terms" >= lt);
  Alcotest.(check (float 0.)) "escaped is exactly zero" 0. c.escaped;
  Alcotest.(check bool) "tail <= epsilon" true (c.tail <= epsilon);
  Alcotest.(check bool) "mass <= 1" true (Vec.sum p <= 1. +. 1e-12);
  Alcotest.(check bool) "mass + tail = 1" true
    (Float.abs (Vec.sum p +. c.tail -. 1.) < 1e-9)

let test_cut_sweep_tail_brackets () =
  (* a loose epsilon cuts the sweep after a few terms; the partial
     answer is returned as is with the whole deficit in the tail, so
     any reward with range [0, 1] lies within [r, r + escaped + tail] *)
  let g = two_state () in
  let epsilon = 0.3 and t = 0.4 in
  let p, (c : Transient.certificate) =
    Transient.uniformization ~epsilon g ~p0:[| 1.; 0. |] ~t
  in
  let retained = Vec.sum p in
  Alcotest.(check bool) "sweep was cut" true (retained < 1. -. 1e-3);
  Alcotest.(check bool) "tail <= epsilon" true (c.tail <= epsilon);
  Alcotest.(check bool) "tail certifies the cut" true
    (Float.abs (retained +. c.tail -. 1.) < 1e-12);
  let lost = c.escaped +. c.tail in
  let exact = [| closed_form 1. t; 1. -. closed_form 1. t |] in
  Array.iteri
    (fun i e ->
      Alcotest.(check bool)
        (Printf.sprintf "state %d bracketed" i)
        true
        (p.(i) <= e && e <= p.(i) +. lost))
    exact

let test_expectation_series () =
  let g = two_state () in
  let times = [| 0.; 0.1; 0.5; 1.; 2.5 |] in
  let h0 = [| 1.; 0. |] and h1 = [| 0.; 1. |] in
  let e = fst (Transient.expectation_series g ~p0:[| 1.; 0. |] ~times [| h0; h1 |]) in
  Array.iteri
    (fun j t ->
      let p = fst (Transient.uniformization g ~p0:[| 1.; 0. |] ~t) in
      Alcotest.(check (float 1e-10))
        (Printf.sprintf "h0 at t=%g" t)
        p.(0) e.(j).(0);
      Alcotest.(check (float 1e-10))
        (Printf.sprintf "h1 at t=%g" t)
        p.(1) e.(j).(1);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "closed form at t=%g" t)
        (closed_form 1. t) e.(j).(0))
    times;
  Alcotest.check_raises "times must increase"
    (Invalid_argument "Transient.expectation_series: times not increasing")
    (fun () ->
      ignore
        (Transient.expectation_series g ~p0:[| 1.; 0. |] ~times:[| 1.; 1. |]
           [| h0 |]))

(* property: retained + certified (escaped + tail) mass accounts for
   everything — equal to 1 up to roundoff, and retained + escaped alone
   never falls more than epsilon (+ roundoff) short of 1.  Random
   chains, random leaks, random horizons. *)
let certified_mass_accounting =
  let gen =
    QCheck.Gen.(
      triple (int_range 2 40) (float_range 0.1 5.) (int_range 0 1_000_000))
  in
  QCheck.Test.make ~name:"certified mass accounting" ~count:50
    (QCheck.make gen) (fun (n, t, seed) ->
      let rng = Rng.create seed in
      let trans = ref [] in
      for i = 0 to n - 1 do
        trans := (i, (i + 1) mod n, 0.1 +. Rng.float rng) :: !trans
      done;
      let g = Generator.make ~n !trans in
      let leak = Array.init n (fun _ -> Rng.float rng *. 0.5) in
      let epsilon = 1e-12 in
      let p, (c : Transient.certificate) =
        Transient.uniformization ~epsilon ~leak g
          ~p0:(Array.init n (fun i -> if i = 0 then 1. else 0.))
          ~t
      in
      let retained = Vec.sum p in
      c.escaped >= 0. && c.tail >= 0.
      && Float.abs (retained +. c.escaped +. c.tail -. 1.) < 1e-9
      && retained +. c.escaped >= 1. -. epsilon -. 1e-9
      && retained +. c.escaped <= 1. +. 1e-9)

let test_no_leak_certificate () =
  (* an exact operator loses nothing: escaped exactly 0, and the
     analytic cap keeps the Poisson tail within epsilon *)
  let g = Generator.make ~n:2 [ (0, 1, 500.); (1, 0, 300.) ] in
  let p0 = [| 1.; 0. |] in
  let _, (c : Transient.certificate) = Transient.uniformization g ~p0 ~t:1. in
  Alcotest.(check (float 0.)) "escaped is exactly zero" 0. c.escaped;
  Alcotest.(check bool) "tail below epsilon" true (c.tail <= 1e-12 +. 1e-13)

let suites =
  [
    ( "transient",
      [
        Alcotest.test_case "closed form" `Quick test_uniformization_closed_form;
        Alcotest.test_case "mass preserved" `Quick test_uniformization_preserves_mass;
        Alcotest.test_case "uniformization vs ODE" `Quick test_matches_ode;
        Alcotest.test_case "long horizon" `Quick test_long_horizon_converges_to_stationary;
        Alcotest.test_case "validation" `Quick test_validation;
        Alcotest.test_case "expectation" `Quick test_expectation;
        Alcotest.test_case "stiff / large Λt" `Quick test_large_lambda_t;
        Alcotest.test_case "large Λt vs ODE" `Quick test_large_lambda_t_vs_ode;
        Alcotest.test_case "epsilon validation" `Quick test_epsilon_validation;
        Alcotest.test_case "mass never renormalised" `Quick
          test_mass_never_renormalised;
        Alcotest.test_case "large Λt: full sweep, no renormalising" `Quick
          test_large_lambda_t_full_sweep;
        Alcotest.test_case "cut sweep: tail brackets the answer" `Quick
          test_cut_sweep_tail_brackets;
        Alcotest.test_case "expectation series" `Quick test_expectation_series;
        QCheck_alcotest.to_alcotest certified_mass_accounting;
        Alcotest.test_case "no leak: escaped 0, tail <= epsilon" `Quick
          test_no_leak_certificate;
      ] );
  ]
