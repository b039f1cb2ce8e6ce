(* The batch determinism gate: for every registry model, the
   structure-of-arrays [Tape.Plan.run_batch] must reproduce the scalar
   [Tape.Plan.run] loop BIT FOR BIT — under the sequential chunk
   runner and under 2- and 4-domain pools.  Every consumer of batched
   evaluation (Pontryagin sweeps, uncertainty grids, reachability
   clouds, CTMC assembly) leans on exactly this contract, so a single bit of divergence here
   is a real bug there. *)

open Umf_numerics
module Pool = Umf_runtime.Runtime.Pool
module Model = Umf_meanfield.Model

let n_rows = 257 (* forces full chunks and a ragged tail at chunk 64 *)

(* random states from the clip box and parameters from Θ; a fixed seed
   keeps failures reproducible *)
let batch_of rng m =
  let xs =
    Mat.init n_rows (Model.dim m) (fun _ _ -> 0.)
  and ths =
    Mat.init n_rows (Stdlib.max 1 (Model.theta_dim m)) (fun _ _ -> 0.)
  in
  for i = 0 to n_rows - 1 do
    let x = Optim.Box.sample_uniform rng (Model.clip m) in
    let th = Optim.Box.sample_uniform rng (Model.theta m) in
    for j = 0 to Model.dim m - 1 do
      Mat.set xs i j x.(j)
    done;
    for j = 0 to Model.theta_dim m - 1 do
      Mat.set ths i j th.(j)
    done
  done;
  (xs, ths)

let scalar_reference plan ~xs ~ths =
  let tape = Tape.Plan.tape plan in
  let n_out = Tape.n_outputs tape in
  let out = Mat.zeros n_rows n_out in
  let row = Vec.zeros n_out in
  for i = 0 to n_rows - 1 do
    Tape.Plan.run plan ~x:(Mat.row xs i) ~th:(Mat.row ths i) ~out:row;
    for j = 0 to n_out - 1 do
      Mat.set out i j row.(j)
    done
  done;
  out

let check_bitwise name plan ~par ~xs ~ths reference =
  let n_out = Tape.n_outputs (Tape.Plan.tape plan) in
  let out = Mat.zeros n_rows n_out in
  Tape.Plan.run_batch ?par plan ~xs ~ths ~out;
  for i = 0 to n_rows - 1 do
    for j = 0 to n_out - 1 do
      let b = Mat.get out i j and s = Mat.get reference i j in
      if not (b = s || (Float.is_nan b && Float.is_nan s)) then
        Alcotest.failf "%s: row %d output %d: batch %.17g <> scalar %.17g"
          name i j b s
    done
  done

let plans_of m = [ ("drift", Model.drift_plan m); ("rates", Model.rates_plan m) ]

let test_model (name, m) () =
  let rng = Rng.create 20260809 in
  let xs, ths = batch_of rng m in
  List.iter
    (fun (kind, plan) ->
      let reference = scalar_reference plan ~xs ~ths in
      let label domains = Printf.sprintf "%s/%s@%s" name kind domains in
      check_bitwise (label "seq") plan ~par:None ~xs ~ths reference;
      List.iter
        (fun domains ->
          Pool.with_pool ~domains (fun p ->
              check_bitwise
                (label (string_of_int domains))
                plan
                ~par:(Some (fun n f -> Pool.parallel_for ~stage:"batch-smoke" p n f))
                ~xs ~ths reference))
        [ 2; 4 ])
    (plans_of m)

(* Solver-level references: the uncertain envelope and equilibria run
   every θ of the grid as a lockstep lane and fold the samples as the
   lanes advance; reach clouds run their controls as lockstep lanes.
   Each must reproduce the per-lane scalar integration BIT FOR BIT,
   observed or not and with or without a pool. *)
module Di = Umf_diffinc.Di
module Uncertain = Umf_diffinc.Uncertain
module Obs = Umf_obs.Obs

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_vec name a b =
  if Vec.dim a <> Vec.dim b then Alcotest.failf "%s: dimension differs" name;
  Array.iteri
    (fun j x ->
      if not (same_bits x b.(j)) then
        Alcotest.failf "%s[%d]: lockstep %.17g <> reference %.17g" name j x
          b.(j))
    a

(* the envelope as one scalar trajectory per θ, sampled by
   [Ode.Traj.at] and folded in grid order *)
let reference_envelope di ~dt ~grid ~x0 ~times =
  let horizon = Array.fold_left Float.max 0. times in
  let m = Array.length times and d = di.Di.dim in
  let lower = Array.make m (Vec.create d Float.infinity)
  and upper = Array.make m (Vec.create d Float.neg_infinity) in
  List.iter
    (fun theta ->
      let traj = Di.integrate_constant di ~theta ~x0 ~horizon ~dt in
      Array.iteri
        (fun i t ->
          let x = Ode.Traj.at traj t in
          lower.(i) <- Vec.cmin lower.(i) x;
          upper.(i) <- Vec.cmax upper.(i) x)
        times)
    (Optim.Box.sample_grid di.Di.theta grid);
  (lower, upper)

(* dt = 0.125 over 1.3: samples on grid points (0.25, 0.5, 1.25),
   between them, at 0 (twice), inside the last short step and at the
   horizon, out of order *)
let envelope_times = [| 0.; 0.25; 0.3; 1.3; 0.5; 0.77; 1.25; 1.29; 0. |]

(* the smallest grid over more than one 64-lane slice, so that a pool
   runs several slices, the last one ragged *)
let slicing_grid di =
  let axes = float_of_int (Optim.Box.dim di.Di.theta) in
  let rec past_one_slice g =
    if float_of_int g ** axes > 64. then g else past_one_slice (g + 1)
  in
  past_one_slice 2

let test_uncertain_envelope (name, m) () =
  let di = Di.of_model m and x0 = Model.x0 m and dt = 0.125 in
  let grid = slicing_grid di in
  let times = envelope_times in
  let lo_ref, hi_ref = reference_envelope di ~dt ~grid ~x0 ~times in
  let lanes = List.length (Optim.Box.sample_grid di.Di.theta grid) in
  let steps =
    Ode.Traj.length
      (Di.integrate_constant di ~theta:(Optim.Box.midpoint di.Di.theta) ~x0
         ~horizon:1.3 ~dt)
    - 1
  in
  let check label ?pool observed =
    let agg = Obs.Agg.create () in
    let obs = if observed then Obs.make ~agg () else Obs.off in
    let lo, hi = Uncertain.transient_envelope ?pool ~obs ~dt ~grid di ~x0 ~times in
    Array.iteri
      (fun i t ->
        check_vec (Printf.sprintf "%s %s lower t=%g" name label t) lo.(i) lo_ref.(i);
        check_vec (Printf.sprintf "%s %s upper t=%g" name label t) hi.(i) hi_ref.(i))
      times;
    if observed then begin
      Alcotest.(check (float 0.)) (name ^ " uncertain.thetas")
        (float_of_int lanes) (Obs.Agg.counter agg "uncertain.thetas");
      Alcotest.(check (float 0.)) (name ^ " ode.steps")
        (float_of_int (lanes * steps)) (Obs.Agg.counter agg "ode.steps")
    end
  in
  check "unobserved" false;
  check "observed" true;
  Pool.with_pool ~domains:2 (fun pool ->
      check "pool, unobserved" ~pool false;
      check "pool, observed" ~pool true)

let test_equilibria (name, m) () =
  let di = Di.of_model m and x0 = Model.x0 m in
  let grid = slicing_grid di in
  let reference =
    List.map
      (fun theta ->
        Umf_reference.Ode_ref.integrate_to (fun _t x -> di.Di.drift x theta) ~t0:0. ~y0:x0
          ~t1:2. ~dt:0.05)
      (Optim.Box.sample_grid di.Di.theta grid)
  in
  let check label eqs =
    List.iteri
      (fun l (a, b) -> check_vec (Printf.sprintf "%s %s lane %d" name label l) a b)
      (List.combine eqs reference)
  in
  check "sequential" (Uncertain.equilibria ~dt:0.05 ~grid ~settle_time:2. di ~x0);
  Pool.with_pool ~domains:2 (fun pool ->
      check "pool"
        (Uncertain.equilibria ~pool ~dt:0.05 ~grid ~settle_time:2. di ~x0))

(* the lanes a reach cloud integrates, against one scalar
   [Di.integrate_control] per control: piecewise-constant controls
   switching between Θ's vertices, sliced over a pool as the cloud is *)
let test_reach_lanes (name, m) () =
  let di = Di.of_model m and x0 = Model.x0 m in
  let verts = Array.of_list (Optim.Box.vertices di.Di.theta) in
  let nv = Array.length verts in
  let controls =
    Array.init 70 (fun c t _x ->
        verts.((c + int_of_float (t *. 3.)) mod nv))
  in
  let reference =
    Array.map
      (fun control ->
        Ode.Traj.last (Di.integrate_control di ~control ~x0 ~horizon:1.5 ~dt:0.05))
      controls
  in
  let check label finals =
    Array.iteri
      (fun l x -> check_vec (Printf.sprintf "%s %s lane %d" name label l) x reference.(l))
      finals
  in
  check "one batch"
    (Di.integrate_control_batch di ~controls ~x0 ~horizon:1.5 ~dt:0.05);
  Pool.with_pool ~domains:2 (fun pool ->
      check "pool slices"
        (Array.concat
           (Array.to_list
              (Di.map_slices (Some pool) ~stage:"batch-smoke"
                 (fun controls ->
                   Di.integrate_control_batch di ~controls ~x0 ~horizon:1.5
                     ~dt:0.05)
                 controls))))

let () =
  let per_model f =
    List.map
      (fun ((name, _) as nm) -> Alcotest.test_case name `Quick (f nm))
      (Umf_models.Registry.all ())
  in
  Alcotest.run "batch-smoke"
    [
      ("bitwise", per_model test_model);
      ("uncertain envelope vs per-θ trajectories", per_model test_uncertain_envelope);
      ("equilibria vs per-θ settles", per_model test_equilibria);
      ("reach lanes vs integrate_control", per_model test_reach_lanes);
    ]
