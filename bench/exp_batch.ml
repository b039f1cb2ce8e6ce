(* BATCH: the structure-of-arrays batch kernel vs the per-point
   scalar loop.

   Every solver sweep that evaluates one tape at many (x, θ) points —
   hull faces, Hamiltonian vertex scans, uncertainty grids,
   reachability clouds, CTMC assembly — now goes through
   [Tape.Plan.run_batch], which dispatches each tape instruction once
   per chunk of lanes instead of re-entering the interpreter loop per
   point.  This experiment prices that against the scalar
   [Tape.Plan.run] loop it replaced, on every registry model's drift
   tape, and checks the two determinism claims the consumers rely on:
   the batch kernel is bit-identical to the scalar loop, at every pool
   size.  Results go to BENCH_batch.json; the acceptance budget is a
   >= 5x speedup on a >= 1024-point SIR drift sweep. *)
open Umf

let n_points = 4096

let reps = 50

let fill_batch rng m n =
  let xs = Mat.zeros n (Model.dim m)
  and ths = Mat.zeros n (Stdlib.max 1 (Model.theta_dim m)) in
  for i = 0 to n - 1 do
    let x = Optim.Box.sample_uniform rng (Model.clip m)
    and th = Optim.Box.sample_uniform rng (Model.theta m) in
    for j = 0 to Model.dim m - 1 do
      Mat.set xs i j x.(j)
    done;
    for j = 0 to Model.theta_dim m - 1 do
      Mat.set ths i j th.(j)
    done
  done;
  (xs, ths)

(* ns per point over the whole sweep; one warm-up pass builds the
   domain-local scratch outside the measured loop *)
let time_sweep n f =
  f ();
  let (), wall = Common.time_it (fun () -> for _ = 1 to reps do f () done) in
  wall /. float_of_int (reps * n) *. 1e9

let bitwise_equal a b =
  let da = Mat.data a and db = Mat.data b in
  Array.length da = Array.length db
  && Array.for_all2 (fun x y -> x = y || (Float.is_nan x && Float.is_nan y)) da db

let model_row (name, m) =
  let plan = Model.drift_plan m in
  let dim = Model.dim m in
  let xs, ths = fill_batch (Rng.create 42) m n_points in
  let xrows = Array.init n_points (Mat.row xs)
  and trows = Array.init n_points (Mat.row ths) in
  let scalar_out = Mat.zeros n_points dim in
  let row = Vec.zeros dim in
  let scalar_ns =
    time_sweep n_points (fun () ->
        for i = 0 to n_points - 1 do
          Tape.Plan.run plan ~x:xrows.(i) ~th:trows.(i) ~out:row;
          for j = 0 to dim - 1 do
            Mat.set scalar_out i j row.(j)
          done
        done)
  in
  let batch_out = Mat.zeros n_points dim in
  let batch_ns =
    time_sweep n_points (fun () ->
        Tape.Plan.run_batch plan ~xs ~ths ~out:batch_out)
  in
  let bitwise = bitwise_equal scalar_out batch_out in
  let speedup = scalar_ns /. batch_ns in
  Common.row "%-12s %10.1f %10.1f %8.2fx %s\n" name scalar_ns batch_ns speedup
    (if bitwise then "bitwise" else "DIVERGES");
  ( name,
    Obs.Json.Obj
      [
        ("scalar_ns_per_eval", Obs.Json.Num scalar_ns);
        ("batch_ns_per_eval", Obs.Json.Num batch_ns);
        ("speedup", Obs.Json.Num speedup);
        ("bitwise_identical", Obs.Json.Bool bitwise);
      ],
    (speedup, bitwise) )

(* chunk-parallel scaling on the SIR sweep: same batch, 2- and
   4-domain pools scheduling the chunks; output must not move a bit *)
let pool_scaling () =
  let m = Registry.find_exn "sir" in
  let plan = Model.drift_plan m in
  let dim = Model.dim m in
  let xs, ths = fill_batch (Rng.create 42) m n_points in
  let reference = Mat.zeros n_points dim in
  Tape.Plan.run_batch plan ~xs ~ths ~out:reference;
  let seq_ns =
    time_sweep n_points (fun () ->
        Tape.Plan.run_batch plan ~xs ~ths ~out:reference)
  in
  let pool_row domains =
    Runtime.Pool.with_pool ~domains (fun p ->
        let par n f = Runtime.Pool.parallel_for ~stage:"bench-batch" p n f in
        let out = Mat.zeros n_points dim in
        let ns =
          time_sweep n_points (fun () ->
              Tape.Plan.run_batch ~par plan ~xs ~ths ~out)
        in
        let bitwise = bitwise_equal reference out in
        Common.row "sir pool=%d   %10.1f ns/eval  %8.2fx vs seq  %s\n" domains
          ns (seq_ns /. ns)
          (if bitwise then "bitwise" else "DIVERGES");
        ( Printf.sprintf "domains%d" domains,
          Obs.Json.Obj
            [
              ("ns_per_eval", Obs.Json.Num ns);
              ("speedup_vs_seq", Obs.Json.Num (seq_ns /. ns));
              ("bitwise_identical", Obs.Json.Bool bitwise);
            ],
          bitwise ))
  in
  let rows = List.map pool_row [ 2; 4 ] in
  ( ("seq", Obs.Json.Obj [ ("ns_per_eval", Obs.Json.Num seq_ns) ])
    :: List.map (fun (k, j, _) -> (k, j)) rows,
    List.for_all (fun (_, _, b) -> b) rows )

let run () =
  Common.banner "BATCH: SoA batch kernel vs per-point tape evaluation";
  Common.header [ "model"; "scalar_ns"; "batch_ns"; "speedup"; "identity" ];
  let rows = List.map model_row (Registry.all ()) in
  let scaling, pools_bitwise = pool_scaling () in
  let sir_speedup, sir_bitwise =
    match List.find_opt (fun (n, _, _) -> n = "sir") rows with
    | Some (_, _, sb) -> sb
    | None -> (0., false)
  in
  let all_bitwise =
    List.for_all (fun (_, _, (_, b)) -> b) rows && pools_bitwise
  in
  Common.claim
    (Printf.sprintf ">= 5x batch speedup on the %d-point sir drift sweep"
       n_points)
    (sir_speedup >= 5. && sir_bitwise)
    (Printf.sprintf "sir %.2fx, bitwise %b" sir_speedup sir_bitwise);
  Common.claim "batch bit-identical to scalar loop at every pool size"
    all_bitwise
    (if all_bitwise then "all models, seq/2/4 domains" else "DIVERGENCE");
  let oc = open_out "BENCH_batch.json" in
  output_string oc
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("commit", Obs.Json.Str (Common.git_commit ()));
            ( "cores",
              Obs.Json.Num (float_of_int (Domain.recommended_domain_count ()))
            );
            ("n_points", Obs.Json.Num (float_of_int n_points));
            ("reps", Obs.Json.Num (float_of_int reps));
            ( "models",
              Obs.Json.Obj (List.map (fun (n, j, _) -> (n, j)) rows) );
            ("sir_pool_scaling", Obs.Json.Obj scaling);
          ]));
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_batch.json"
