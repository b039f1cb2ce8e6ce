(* The finite-N engine against the mean-field machinery: Theorem 1
   sanity (the exact transient mean lies inside the
   differential-inclusion bounds), envelope consistency between the
   two scenarios, pool determinism, the affine-θ gate and adaptive
   truncation soundness. *)

open Umf

let times = Vec.linspace 0. 5. 6

let engine_spec ?pool ?truncation ~scenario ~horizon ~times ~n model =
  Ctmc.Engine.spec ~scenario ~horizon ~times ?truncation ?pool ~n model

let test_theorem1_sir () =
  (* Theorem 1: for large N the exact E[X_I(t)] under any fixed θ lies
     inside the imprecise DI transient bounds.  N = 100 (5151 lattice
     states, solved exactly by sparse uniformisation) with a slack for
     the O(1/sqrt N) finite-size gap. *)
  let model = Sir.make Sir.default_params in
  let di_spec = Analysis.spec ~horizon:5. model in
  let bounds = Analysis.transient_bounds ~times di_spec ~x0:Sir.x0 ~coord:1 in
  let fn =
    Ctmc.Engine.envelope
      (engine_spec ~scenario:(Ctmc.Engine.Uncertain 3) ~horizon:5. ~times
         ~n:100 model)
      ~reward:(Ctmc.Engine.Coord 1)
  in
  Alcotest.(check int) "lattice size" 5151 fn.Ctmc.Engine.states;
  let slack = 0.05 in
  Array.iteri
    (fun j t ->
      let m = fn.mean.(j) in
      Alcotest.(check bool)
        (Printf.sprintf "mean above DI lower at t=%g" t)
        true
        (m >= bounds.Analysis.lower.(j) -. slack);
      Alcotest.(check bool)
        (Printf.sprintf "mean below DI upper at t=%g" t)
        true
        (m <= bounds.Analysis.upper.(j) +. slack);
      (* the grid includes the box midpoint, so the uncertain envelope
         brackets the midpoint mean exactly *)
      Alcotest.(check bool)
        (Printf.sprintf "envelope brackets mean at t=%g" t)
        true
        (fn.lower.(j) <= m +. 1e-9 && m -. 1e-9 <= fn.upper.(j)))
    times;
  Alcotest.(check (float 1e-9)) "t=0 mean is the initial density" 0.3
    fn.mean.(0);
  (* the space is exact so nothing escapes; the lost mass is the tail
     deficit, pure roundoff of the log-space Poisson weights (ln k! sums
     ~1.6e3 logs at λt ≈ 1.5e3, so Σ w_k = 1 ± ~1e-9, far above
     ε = 1e-12) *)
  Alcotest.(check bool) "exact certificates" true
    (Array.for_all (fun l -> l <= 1e-8) fn.lost
    && Array.for_all
         (fun (c : Cert.t) -> c.budget.truncation <= 1e-8)
         fn.certs)

let test_imprecise_contains_uncertain () =
  (* the imprecise (time-varying θ) envelope must contain the
     uncertain (constant θ) one; slack covers the backward sweep's
     first-order discretisation *)
  let model = Sir.make Sir.default_params in
  let t2 = Vec.linspace 0. 2. 5 in
  let envelope scenario =
    Ctmc.Engine.envelope
      (engine_spec ~scenario ~horizon:2. ~times:t2 ~n:30 model)
      ~reward:(Ctmc.Engine.Coord 1)
  in
  let unc = envelope (Ctmc.Engine.Uncertain 3) in
  let imp = envelope Ctmc.Engine.Imprecise in
  let slack = 0.05 in
  Array.iteri
    (fun j t ->
      Alcotest.(check bool)
        (Printf.sprintf "imprecise lower below uncertain at t=%g" t)
        true
        (imp.Ctmc.Engine.lower.(j) <= unc.Ctmc.Engine.lower.(j) +. slack);
      Alcotest.(check bool)
        (Printf.sprintf "imprecise upper above uncertain at t=%g" t)
        true
        (imp.upper.(j) >= unc.upper.(j) -. slack))
    t2

let test_pool_bit_identical () =
  let model = Sir.make Sir.default_params in
  let run pool =
    Ctmc.Engine.envelope
      (engine_spec ?pool ~scenario:(Ctmc.Engine.Uncertain 2) ~horizon:2.
         ~times:(Vec.linspace 0. 2. 5) ~n:40 model)
      ~reward:(Ctmc.Engine.Coord 1)
  in
  let seq = run None in
  let par = Runtime.Pool.with_pool ~domains:2 (fun pool -> run (Some pool)) in
  let bitwise name a b =
    Array.iteri
      (fun i x ->
        if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then
          Alcotest.failf "%s differs at %d" name i)
      a
  in
  bitwise "mean" seq.Ctmc.Engine.mean par.Ctmc.Engine.mean;
  bitwise "lower" seq.lower par.lower;
  bitwise "upper" seq.upper par.upper

let quad_model () =
  let open Expr in
  Model.make ~name:"quad" ~var_names:[| "x" |] ~theta_names:[| "k" |]
    ~theta:(Optim.Box.make [| 1. |] [| 2. |])
    ~x0:[| 0.5 |]
    [
      { Model.name = "up"; change = [| 1. |];
        rate = theta 0 *: theta 0 *: max_ (const 0.) (const 1. -: var 0) };
      { Model.name = "down"; change = [| -1. |]; rate = var 0 };
    ]

let test_affine_gate () =
  (* a θ²-rate model is not affine in θ: the imprecise finite-N sweep
     must refuse (vertex extremisation would be unsound), the
     uncertain grid must still work *)
  let model = quad_model () in
  Alcotest.(check bool) "model really is non-affine" false
    (Model.affine_in_theta model);
  let t1 = Vec.linspace 0. 1. 5 in
  let envelope scenario =
    Ctmc.Engine.envelope
      (engine_spec ~scenario ~horizon:1. ~times:t1 ~n:5 model)
      ~reward:(Ctmc.Engine.Coord 0)
  in
  (match envelope Ctmc.Engine.Imprecise with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  let fn = envelope (Ctmc.Engine.Uncertain 2) in
  Array.iteri
    (fun j _ ->
      Alcotest.(check bool) "envelope ordered" true
        (fn.Ctmc.Engine.lower.(j) <= fn.Ctmc.Engine.upper.(j) +. 1e-12))
    fn.times

let test_adaptive_bounds_exact_run () =
  (* on a lattice that fits the budget, Adaptive enumerates the same
     exact space: identical values, zero escaped mass *)
  let model = Sir.make Sir.default_params in
  let t2 = Vec.linspace 0. 2. 5 in
  let run truncation =
    Ctmc.Engine.transient
      (engine_spec ~truncation ~scenario:(Ctmc.Engine.Uncertain 2)
         ~horizon:2. ~times:t2 ~n:30 model)
      ~rewards:[| Ctmc.Engine.Coord 1 |]
  in
  let exact = run (Ctmc.Engine.Exact { max_states = 1_000 }) in
  let adaptive = run (Ctmc.Engine.Adaptive { max_states = 1_000 }) in
  Alcotest.(check int)
    "same lattice" exact.Ctmc.Engine.states adaptive.Ctmc.Engine.states;
  Array.iteri
    (fun j row ->
      Array.iteri
        (fun r x ->
          if Int64.bits_of_float x <> Int64.bits_of_float adaptive.value.(j).(r)
          then Alcotest.failf "value (%d,%d) differs" j r)
        row)
    exact.value

let test_adaptive_bounds_truncated_run () =
  (* shrink the budget until the lattice truncates: Exact refuses,
     Adaptive returns an interval whose width is the certified escaped
     mass — and it must bracket the exact answer computed on the full
     lattice *)
  let model = Sir.make Sir.default_params in
  let t2 = Vec.linspace 0. 2. 5 in
  let run truncation =
    Ctmc.Engine.transient
      (engine_spec ~truncation ~scenario:(Ctmc.Engine.Uncertain 2)
         ~horizon:2. ~times:t2 ~n:30 model)
      ~rewards:[| Ctmc.Engine.Coord 1 |]
  in
  (match run (Ctmc.Engine.Exact { max_states = 100 }) with
  | _ -> Alcotest.fail "expected Failure on exceeded budget"
  | exception Failure _ -> ());
  let full = run (Ctmc.Engine.Exact { max_states = 1_000 }) in
  let cut = run (Ctmc.Engine.Adaptive { max_states = 100 }) in
  Alcotest.(check int) "retained = budget" 100 cut.Ctmc.Engine.states;
  Array.iteri
    (fun j lost ->
      Alcotest.(check bool)
        (Printf.sprintf "escaped mass positive by t=%g" t2.(j))
        true
        (j = 0 || lost > 0.);
      Alcotest.(check bool)
        (Printf.sprintf "interval brackets exact at t=%g" t2.(j))
        true
        (cut.lower.(j).(0) <= full.value.(j).(0) +. 1e-9
        && full.value.(j).(0) <= cut.upper.(j).(0) +. 1e-9);
      Alcotest.(check bool)
        (Printf.sprintf "interval width = lost * range at t=%g" t2.(j))
        true
        (Float.abs (cut.upper.(j).(0) -. cut.lower.(j).(0) -. lost) < 1e-12);
      Alcotest.(check bool)
        (Printf.sprintf "truncation line = lost * range at t=%g" t2.(j))
        true
        (Float.abs (cut.certs.(j).(0).Cert.budget.truncation -. lost) < 1e-12))
    cut.lost

let test_grid_cap () =
  (* the engine's θ grid shares the analysis spec's cap: 1000 per axis
     on bikenet's three axes is refused at spec time, before any θ
     vector is built *)
  let bikenet = Registry.find_exn "bikenet" in
  Alcotest.check_raises "1000 per axis on bikenet"
    (Invalid_argument
       "Engine.spec: an uncertain grid of 1000 per axis has 1e+09 points, \
        over the limit of 4096") (fun () ->
      ignore
        (Ctmc.Engine.spec ~scenario:(Ctmc.Engine.Uncertain 1000) ~n:5 bikenet));
  ignore (Ctmc.Engine.spec ~scenario:(Ctmc.Engine.Uncertain 16) ~n:5 bikenet)

let suites =
  [
    ( "finite_n",
      [
        Alcotest.test_case "Theorem 1 sanity (N=100 SIR)" `Slow
          test_theorem1_sir;
        Alcotest.test_case "imprecise contains uncertain" `Quick
          test_imprecise_contains_uncertain;
        Alcotest.test_case "pool bit-identical" `Quick test_pool_bit_identical;
        Alcotest.test_case "affine gate" `Quick test_affine_gate;
        Alcotest.test_case "adaptive = exact within budget" `Quick
          test_adaptive_bounds_exact_run;
        Alcotest.test_case "adaptive certifies truncated run" `Quick
          test_adaptive_bounds_truncated_run;
        Alcotest.test_case "theta grid cap" `Quick test_grid_cap;
      ] );
  ]
