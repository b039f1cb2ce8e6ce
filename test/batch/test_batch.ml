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
module Population = Umf_meanfield.Population

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

let plans_of m =
  let drift = ("drift", Model.drift_plan m) in
  match Population.rates_plan (Model.population m) with
  | Some p -> [ drift; ("rates", p) ]
  | None -> [ drift ]

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

(* Solver-level A/B: the batched fast paths activate when [Di.t]
   carries a plan and fall back to the scalar loops when it does not.
   Both must produce the same answer BIT FOR BIT — that is the whole
   determinism story of the batched Pontryagin sweeps, uncertainty
   grids and reachability clouds. *)
module Di = Umf_diffinc.Di
module Pontryagin = Umf_diffinc.Pontryagin
module Uncertain = Umf_diffinc.Uncertain
module Reach = Umf_diffinc.Reach

let vec_eq =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Vec.to_string v))
    (fun a b ->
      Vec.dim a = Vec.dim b
      && Array.for_all2 (fun x y -> x = y || (Float.is_nan x && Float.is_nan y)) a b)

let dis () =
  let m = Umf_models.Registry.find_exn "sir" in
  let di = Di.of_model m in
  (di, { di with Di.plan = None }, m)

let test_pontryagin_ab () =
  let di, di_scalar, m = dis () in
  let x0 = Model.x0 m in
  let times = [| 0.5; 1.5 |] in
  let s = Pontryagin.bound_series ~steps:60 di ~x0 ~coord:1 ~times in
  let s' = Pontryagin.bound_series ~steps:60 di_scalar ~x0 ~coord:1 ~times in
  Array.iteri
    (fun i (lo, hi) ->
      let lo', hi' = s'.(i) in
      Alcotest.(check (float 0.)) (Printf.sprintf "min %d" i) lo' lo;
      Alcotest.(check (float 0.)) (Printf.sprintf "max %d" i) hi' hi)
    s

let test_uncertain_ab () =
  let di, di_scalar, m = dis () in
  let x0 = Model.x0 m in
  let times = [| 0.; 1.; 3. |] in
  let lo, hi = Uncertain.transient_envelope ~grid:5 di ~x0 ~times in
  let lo', hi' = Uncertain.transient_envelope ~grid:5 di_scalar ~x0 ~times in
  Array.iteri
    (fun i v ->
      Alcotest.check vec_eq (Printf.sprintf "lower %d" i) lo'.(i) v;
      Alcotest.check vec_eq (Printf.sprintf "upper %d" i) hi'.(i) hi.(i))
    lo

let test_reach_ab () =
  let di, di_scalar, m = dis () in
  let x0 = Model.x0 m in
  let cloud seed d =
    Reach.sample_states d ~x0 ~horizon:1.5 ~n_controls:32 (Rng.create seed)
  in
  List.iter2
    (Alcotest.check vec_eq "reached state")
    (cloud 7 di_scalar) (cloud 7 di)

let () =
  Alcotest.run "batch-smoke"
    [
      ( "bitwise",
        List.map
          (fun ((name, _) as nm) ->
            Alcotest.test_case name `Quick (test_model nm))
          (Umf_models.Registry.all ()) );
      ( "solver A/B (plan vs stripped)",
        [
          Alcotest.test_case "pontryagin series" `Quick test_pontryagin_ab;
          Alcotest.test_case "uncertain envelope" `Quick test_uncertain_ab;
          Alcotest.test_case "reach cloud" `Quick test_reach_ab;
        ] );
    ]
