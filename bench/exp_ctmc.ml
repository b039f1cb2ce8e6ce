(* CTMC: the sparse finite-N engine against the dense path it
   replaces, plus the multicore and adaptive-truncation tiers behind
   Ctmc.Engine.

   Claims backed here:
   - the in-place CSR uniformised step beats the dense reference
     [Mat.tmulv (Umf_reference.Dense.uniformized g)] step by >= 10x at ~10^4
     lattice states (N = 140 SIR);
   - the sparse transient matches a dense uniformisation reference to
     <= 1e-10 on a small chain (the kernels are in fact bit-compatible
     summand for summand);
   - the pooled sweep is bit-identical to the sequential one at every
     domain count;
   - adaptive truncation returns a certified interval that brackets
     the exact answer computed on the full lattice.

   The scaling series runs the full SIR transient at t = 10 for each
   N and domain count and records states, nonzeros, uniformisation
   terms, escaped mass and wall time per solve.  Knobs (so a laptop, a
   CI box and a many-core server can all run the same binary):

     UMF_CTMC_SIZES    comma-separated N list (default 10,30,100,300,1000)
     UMF_CTMC_MAX_N    drop sizes above this (default 1000; raise to 3000
                       for the full paper-scale sweep, ~4.5M states)
     UMF_CTMC_DOMAINS  comma-separated domain counts (default 1,2,4)

   Speedups are only asserted when the machine actually has the cores;
   on fewer cores the measured numbers are still recorded, with the
   core count, so the JSON is honest about what it ran on.  Results go
   to BENCH_ctmc.json. *)
open Umf

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (match int_of_string_opt s with Some v -> v | None -> default)
  | None -> default

let env_ints name default =
  match Sys.getenv_opt name with
  | Some s ->
      let parts = String.split_on_char ',' (String.trim s) in
      let vs = List.filter_map int_of_string_opt parts in
      if vs = [] then default else vs
  | None -> default

let cores = Domain.recommended_domain_count ()

let sir_space n =
  let pop = Model.population (Sir.make Sir.default_params) in
  let sp = Ctmc_of_population.state_space pop ~n ~x0:Sir.x0 in
  (pop, sp)

let generator_at_mid ?pool ?obs pop sp =
  Ctmc_of_population.generator ?pool ?obs sp pop
    ~theta:(Optim.Box.midpoint pop.Population.theta)

(* dense uniformisation with the same rate, weights and stopping rule
   as Transient.uniformization — the reference the sparse path must
   reproduce *)
let dense_uniformization g ~p0 ~t ~epsilon =
  let lambda = Float.max 1e-9 (1.01 *. Generator.max_exit_rate g) in
  let p = Umf_reference.Dense.uniformized ~rate:lambda g in
  let lt = lambda *. t in
  let result = Vec.zeros (Vec.dim p0) in
  let v = ref (Vec.copy p0) in
  let log_weight = ref (-.lt) in
  let mass = ref 0. in
  let k = ref 0 in
  let continue = ref true in
  while !continue do
    let wk = Float.exp !log_weight in
    if !mass +. wk >= 1. -. epsilon || !k > 2_000_000 then begin
      Vec.axpy_in_place wk !v result;
      continue := false
    end
    else begin
      if wk > 0. then Vec.axpy_in_place wk !v result;
      mass := !mass +. wk;
      v := Mat.tmulv p !v;
      incr k;
      log_weight := !log_weight +. Float.log (lt /. float_of_int !k)
    end
  done;
  result

let bits = Int64.bits_of_float

let bitwise_equal a b =
  let ok = ref (Vec.dim a = Vec.dim b) in
  Array.iteri (fun i x -> if bits x <> bits b.(i) then ok := false) a;
  !ok

(* ---- dense vs sparse step at ~10^4 states ---- *)
let step_timing () =
  let n = 140 in
  let pop, sp = sir_space n in
  let states = Ctmc_of_population.n_states sp in
  let g = generator_at_mid pop sp in
  let v = Vec.create states (1. /. float_of_int states) in
  (* dense: the matrix alone is states^2 floats (~800 MB here) *)
  let p = Umf_reference.Dense.uniformized g in
  let sink = ref 0. in
  let time_step reps f =
    ignore (f ());
    let (), wall = Common.time_it (fun () ->
        for _ = 1 to reps do
          sink := !sink +. (f ()).(0)
        done)
    in
    wall /. float_of_int reps
  in
  let dense_s = time_step 3 (fun () -> Mat.tmulv p v) in
  let op = Ctmc.Sparse.forward g in
  let into = Vec.zeros states in
  let sparse_s =
    time_step 200 (fun () ->
        ignore (Ctmc.Sparse.step_into op v ~into : float);
        into)
  in
  let speedup = dense_s /. sparse_s in
  Common.row
    "states=%d nnz=%d blocks=%d dense=%.3es sparse=%.3es speedup=%.0fx\n"
    states (Ctmc.Sparse.nnz op) (Ctmc.Sparse.n_blocks op) dense_s sparse_s
    speedup;
  Common.claim "sparse step >= 10x dense at ~10^4 states" (speedup >= 10.)
    (Printf.sprintf "%.0fx at %d states" speedup states);
  ignore !sink;
  (states, Ctmc.Sparse.nnz op, dense_s, sparse_s, speedup)

(* ---- small-chain agreement with the dense reference ---- *)
let accuracy () =
  let pop, sp = sir_space 30 in
  let g = generator_at_mid pop sp in
  let p0 = Ctmc_of_population.point_mass sp in
  let epsilon = 1e-12 in
  let sparse = Ctmc.Transient.uniformization ~epsilon g ~p0 ~t:5. in
  let dense = dense_uniformization g ~p0 ~t:5. ~epsilon in
  let dist = Vec.dist_inf sparse dense in
  Common.claim "sparse transient matches dense reference <= 1e-10"
    (dist <= 1e-10)
    (Printf.sprintf "inf-norm gap %.3e at %d states" dist (Vec.dim p0));
  dist

(* ---- N x domains scaling of the full transient at t = 10 ---- *)
let scaling () =
  let max_n = env_int "UMF_CTMC_MAX_N" 1000 in
  let sizes =
    List.filter
      (fun n -> n <= max_n)
      (env_ints "UMF_CTMC_SIZES" [ 10; 30; 100; 300; 1000 ])
  in
  let domain_counts = env_ints "UMF_CTMC_DOMAINS" [ 1; 2; 4 ] in
  Common.header
    [ "N"; "states"; "nnz"; "domains"; "terms"; "wall_s"; "state_upd_per_s" ];
  let rows =
    List.concat_map
      (fun n ->
        let pop, sp = sir_space n in
        let g = generator_at_mid pop sp in
        let p0 = Ctmc_of_population.point_mass sp in
        let states = Ctmc_of_population.n_states sp in
        let reference = ref None in
        List.map
          (fun domains ->
            let agg = Obs.Agg.create () in
            let obs = Obs.make ~agg () in
            let run pool =
              Common.time_it (fun () ->
                  Ctmc.Transient.uniformization_certified ?pool ~obs g ~p0
                    ~t:10.)
            in
            let (p, (c : Ctmc.Transient.certificate)), wall =
              if domains <= 1 then run None
              else
                Runtime.Pool.with_pool ~domains (fun pool -> run (Some pool))
            in
            (match !reference with
            | None -> reference := Some p
            | Some r ->
                if not (bitwise_equal r p) then begin
                  Printf.eprintf
                    "FATAL: %d-domain sweep differs from sequential at n=%d\n"
                    domains n;
                  exit 1
                end);
            let terms = Obs.Agg.counter agg "ctmc.terms" in
            let rate = float_of_int states *. terms /. wall in
            Common.row "%d\t%d\t%d\t%d\t%.0f\t%.3f\t%.3e\n" n states
              (Generator.nnz g) domains terms wall rate;
            ( n,
              states,
              Generator.nnz g,
              domains,
              terms,
              wall,
              rate,
              c.escaped +. c.tail ))
          domain_counts)
      sizes
  in
  Common.claim "pooled sweep bit-identical to sequential" true
    (Printf.sprintf "%d sizes x {%s} domains" (List.length sizes)
       (String.concat "," (List.map string_of_int domain_counts)));
  (* speedup is only a fair claim when the cores exist; either way the
     JSON records what this machine measured *)
  let wall_of n d =
    List.find_map
      (fun (n', _, _, d', _, w, _, _) ->
        if n' = n && d' = d then Some w else None)
      rows
  in
  let top_n = List.fold_left Stdlib.max 0 sizes in
  (match (wall_of top_n 1, wall_of top_n 4) with
  | Some w1, Some w4 when cores >= 4 ->
      Common.claim "parallel sweep >= 2.5x at 4 domains" (w1 /. w4 >= 2.5)
        (Printf.sprintf "%.2fx at n=%d on %d cores" (w1 /. w4) top_n cores)
  | Some w1, Some w4 ->
      Common.row
        "note: %d core(s) available — 4-domain speedup %.2fx at n=%d is \
         core-bound, not asserted\n"
        cores (w1 /. w4) top_n
  | _ -> ());
  rows

(* ---- adaptive truncation: certified interval vs exact answer ---- *)
let adaptive () =
  let n = 300 in
  let budget = 20_000 in
  let model = Sir.make Sir.default_params in
  let times = [| 0.; 2.; 5.; 10. |] in
  let run truncation =
    Ctmc.Engine.transient
      (Ctmc.Engine.spec ~horizon:10. ~times ~truncation ~n model)
      ~rewards:[| Ctmc.Engine.Coord 1 |]
  in
  let exact = run (Ctmc.Engine.Exact { max_states = 2_000_000 }) in
  let cut, wall =
    Common.time_it (fun () ->
        run (Ctmc.Engine.Adaptive { max_states = budget }))
  in
  Common.header [ "t"; "exact"; "lower"; "upper"; "escaped" ];
  let ok = ref true in
  let rows =
    Array.to_list
      (Array.mapi
         (fun j t ->
           let e = exact.Ctmc.Engine.value.(j).(0) in
           let lo = cut.Ctmc.Engine.lower.(j).(0)
           and hi = cut.Ctmc.Engine.upper.(j).(0) in
           let lost = cut.Ctmc.Engine.lost.(j) in
           if not (lo <= e +. 1e-9 && e <= hi +. 1e-9) then ok := false;
           Common.row "%.1f\t%.5f\t%.5f\t%.5f\t%.3e\n" t e lo hi lost;
           (t, e, lo, hi, lost))
         times)
  in
  Common.claim "adaptive interval brackets the exact answer" !ok
    (Printf.sprintf "%d of %d states retained, %.2fs" cut.states exact.states
       wall);
  (exact.states, cut.states, wall, rows)

let run () =
  Common.banner "CTMC: sparse finite-N engine";
  let states, nnz, dense_s, sparse_s, speedup = step_timing () in
  let dist = accuracy () in
  let rows = scaling () in
  let exact_states, retained_states, adaptive_wall, adaptive_rows =
    adaptive ()
  in
  let oc = open_out "BENCH_ctmc.json" in
  output_string oc
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("cores", Obs.Json.Num (float_of_int cores));
            ( "dense_vs_sparse",
              Obs.Json.Obj
                [
                  ("states", Obs.Json.Num (float_of_int states));
                  ("nnz", Obs.Json.Num (float_of_int nnz));
                  ("dense_s_per_step", Obs.Json.Num dense_s);
                  ("sparse_s_per_step", Obs.Json.Num sparse_s);
                  ("speedup", Obs.Json.Num speedup);
                ] );
            ("dense_agreement_inf_norm", Obs.Json.Num dist);
            ("pool_bit_identical", Obs.Json.Bool true);
            ( "scaling_t10",
              Obs.Json.Arr
                (List.map
                   (fun (n, states, nnz, domains, terms, wall, rate, escaped)
                      ->
                     Obs.Json.Obj
                       [
                         ("n", Obs.Json.Num (float_of_int n));
                         ("states", Obs.Json.Num (float_of_int states));
                         ("nnz", Obs.Json.Num (float_of_int nnz));
                         ("domains", Obs.Json.Num (float_of_int domains));
                         ("terms", Obs.Json.Num terms);
                         ("wall_s", Obs.Json.Num wall);
                         ("state_updates_per_s", Obs.Json.Num rate);
                         ("escaped_mass", Obs.Json.Num escaped);
                       ])
                   rows) );
            ( "adaptive_truncation",
              Obs.Json.Obj
                [
                  ("n", Obs.Json.Num 300.);
                  ("exact_states", Obs.Json.Num (float_of_int exact_states));
                  ( "retained_states",
                    Obs.Json.Num (float_of_int retained_states) );
                  ("wall_s", Obs.Json.Num adaptive_wall);
                  ( "series",
                    Obs.Json.Arr
                      (List.map
                         (fun (t, e, lo, hi, lost) ->
                           Obs.Json.Obj
                             [
                               ("t", Obs.Json.Num t);
                               ("exact", Obs.Json.Num e);
                               ("lower", Obs.Json.Num lo);
                               ("upper", Obs.Json.Num hi);
                               ("escaped_mass", Obs.Json.Num lost);
                             ])
                         adaptive_rows) );
                ] );
          ]));
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_ctmc.json"
