(* The multicore execution engine: pool semantics (fork-join, exception
   propagation, nested-use rejection, stats, shutdown) and the
   determinism guarantee — parallel output bit-identical to sequential
   for any domain count — on the library's real fan-out workloads. *)
open Umf
module Pool = Runtime.Pool

(* --- pool unit tests ------------------------------------------------- *)

let test_map_equals_sequential () =
  Pool.with_pool ~domains:3 (fun p ->
      let xs = Array.init 257 (fun i -> i) in
      let f x = (x * x) + 1 in
      let expected = Array.map f xs in
      Alcotest.(check (array int)) "257 tasks, 3 domains" expected
        (Pool.parallel_map p f xs);
      Alcotest.(check (array int)) "chunk 1" expected
        (Pool.parallel_map ~chunk:1 p f xs);
      Alcotest.(check (array int)) "chunk larger than input" expected
        (Pool.parallel_map ~chunk:1000 p f xs);
      Alcotest.(check (array int)) "empty input" [||]
        (Pool.parallel_map p f [||]))

let test_map_list_preserves_order () =
  Pool.with_pool ~domains:2 (fun p ->
      let xs = List.init 100 string_of_int in
      Alcotest.(check (list string)) "order kept" xs
        (Pool.map_list p Fun.id xs))

let test_parallel_for_covers_all_indices () =
  Pool.with_pool ~domains:4 (fun p ->
      let hits = Array.make 1000 0 in
      Pool.parallel_for p 1000 (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "each index exactly once" true
        (Array.for_all (fun h -> h = 1) hits))

exception Boom of int

let test_exception_propagation () =
  Pool.with_pool ~domains:2 (fun p ->
      let raised =
        try
          ignore
            (Pool.parallel_map p
               (fun i -> if i = 41 then raise (Boom i) else i)
               (Array.init 100 Fun.id));
          false
        with Boom 41 -> true
      in
      Alcotest.(check bool) "task exception re-raised in caller" true raised;
      (* the pool survives a failed section *)
      Alcotest.(check (array int)) "pool usable afterwards"
        [| 0; 2; 4 |]
        (Pool.parallel_map p (fun i -> 2 * i) [| 0; 1; 2 |]))

let test_nested_use_rejected () =
  Pool.with_pool ~domains:2 (fun p ->
      let rejected =
        try
          ignore
            (Pool.parallel_map p
               (fun _ -> Pool.parallel_map p Fun.id [| 1 |])
               [| 0 |]);
          false
        with Invalid_argument _ -> true
      in
      Alcotest.(check bool) "section inside a worker task rejected" true
        rejected)

let test_stats_counters () =
  Pool.with_pool ~domains:2 (fun p ->
      Alcotest.(check int) "size" 2 (Pool.size p);
      ignore (Pool.parallel_map ~stage:"a" p Fun.id (Array.init 10 Fun.id));
      ignore (Pool.parallel_map ~stage:"a" p Fun.id (Array.init 7 Fun.id));
      ignore (Pool.parallel_map ~stage:"b" p Fun.id (Array.init 5 Fun.id));
      let s = Pool.stats p in
      Alcotest.(check int) "domains" 2 s.Runtime.domains;
      Alcotest.(check int) "sections" 3 s.Runtime.sections;
      Alcotest.(check int) "tasks" 22 s.Runtime.tasks;
      Alcotest.(check bool) "wall non-negative" true (s.Runtime.wall >= 0.);
      match Pool.stage_stats p with
      | [ ("a", sa); ("b", sb) ] ->
          Alcotest.(check int) "stage a sections" 2 sa.Runtime.sections;
          Alcotest.(check int) "stage a tasks" 17 sa.Runtime.tasks;
          Alcotest.(check int) "stage b tasks" 5 sb.Runtime.tasks
      | l -> Alcotest.failf "expected stages a,b; got %d entries" (List.length l))

let test_shutdown_semantics () =
  let p = Pool.create ~domains:2 () in
  ignore (Pool.parallel_map p Fun.id [| 1; 2 |]);
  Pool.shutdown p;
  Pool.shutdown p;
  (* idempotent *)
  let rejected =
    try
      ignore (Pool.parallel_map p Fun.id [| 1 |]);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "use after shutdown rejected" true rejected;
  let bad =
    try
      ignore (Pool.create ~domains:0 ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "domains < 1 rejected" true bad

let test_seeds_are_stable_and_distinct () =
  Alcotest.(check int) "mix is a pure function" (Runtime.Seeds.mix 7 3)
    (Runtime.Seeds.mix 7 3);
  let n = 1000 in
  let tbl = Hashtbl.create n in
  for i = 0 to n - 1 do
    Hashtbl.replace tbl (Runtime.Seeds.mix 42 i) ()
  done;
  Alcotest.(check int) "1000 indices give 1000 distinct seeds" n
    (Hashtbl.length tbl);
  let a = Rng.float (Runtime.Seeds.rng ~root:1 0)
  and b = Rng.float (Runtime.Seeds.rng ~root:1 1) in
  Alcotest.(check bool) "adjacent streams differ" true (a <> b)

(* --- determinism on the real workloads ------------------------------- *)

let p = Sir.default_params

let di = Sir.di p

let model = Sir.make p

let sym = Sir.make p

let check_env name (lo1, hi1) (lo2, hi2) =
  Array.iteri
    (fun i v ->
      Alcotest.(check bool) (name ^ " lower") true (v = lo2.(i));
      Alcotest.(check bool) (name ^ " upper") true (hi1.(i) = hi2.(i)))
    lo1

let test_uncertain_sweep_deterministic () =
  let times = [| 0.5; 1.; 2. |] in
  let run ?pool () =
    Uncertain.transient_envelope ?pool ~dt:0.05 ~grid:5 di ~x0:Sir.x0 ~times
  in
  let seq = run () in
  Pool.with_pool ~domains:1 (fun p1 ->
      check_env "jobs=1 vs sequential" seq (run ~pool:p1 ()));
  Pool.with_pool ~domains:4 (fun p4 ->
      check_env "jobs=4 vs sequential" seq (run ~pool:p4 ()))

let test_reach_cloud_deterministic () =
  let run pool =
    Reach.sample_states ~pool ~dt:0.05 di ~x0:Sir.x0 ~horizon:2.
      ~n_controls:48 (Rng.create 5)
    |> Array.of_list
  in
  let c1 = Pool.with_pool ~domains:1 run in
  let c4 = Pool.with_pool ~domains:4 run in
  Alcotest.(check bool) "jobs=1 and jobs=4 clouds bit-identical" true
    (c1 = c4)

let test_ssa_replicate_deterministic () =
  let run ?pool () =
    Ssa.replicate ?pool model ~n:100 ~x0:Sir.x0
      ~policy:(Sir.policy_theta1 p) ~tmax:2. ~reps:10 ~seed:3
  in
  let seq = run () in
  let par = Pool.with_pool ~domains:4 (fun p4 -> run ~pool:p4 ()) in
  Alcotest.(check bool) "replication batch bit-identical" true (seq = par)

let test_inclusion_fraction_deterministic () =
  (* > 1024 synthetic states forces the chunked parallel fold *)
  let spec_seq = Analysis.spec sym in
  let region = Analysis.steady_state_region_2d ~x_start:Sir.x0 spec_seq in
  let rng = Rng.create 11 in
  let states =
    Array.init 3000 (fun _ -> [| Rng.float rng; Rng.float rng |])
  in
  let seq = Analysis.inclusion_fraction ~tol:3e-3 spec_seq region states in
  let seq_exc = Analysis.mean_exceedance spec_seq region states in
  Pool.with_pool ~domains:4 (fun p4 ->
      let spec_par = Analysis.spec ~pool:p4 sym in
      let par = Analysis.inclusion_fraction ~tol:3e-3 spec_par region states in
      let par_exc = Analysis.mean_exceedance spec_par region states in
      Alcotest.(check int) "inside counts equal" seq.Analysis.inside
        par.Analysis.inside;
      Alcotest.(check (float 0.)) "fractions bit-identical"
        seq.Analysis.fraction par.Analysis.fraction;
      Alcotest.(check (float 0.)) "strict fractions bit-identical"
        seq.Analysis.strict par.Analysis.strict;
      Alcotest.(check (float 0.)) "mean exceedance bit-identical"
        seq_exc.Analysis.mean par_exc.Analysis.mean;
      Alcotest.(check (float 0.)) "worst exceedance bit-identical"
        seq_exc.Analysis.worst par_exc.Analysis.worst)

let test_pontryagin_series_deterministic () =
  let times = [| 1.; 2. |] in
  let seq =
    Pontryagin.bound_series ~steps:60 di ~x0:Sir.x0 ~coord:1 ~times
  in
  let par =
    Pool.with_pool ~domains:3 (fun p3 ->
        Pontryagin.bound_series ~pool:p3 ~steps:60 di ~x0:Sir.x0 ~coord:1
          ~times)
  in
  Alcotest.(check bool) "bound series bit-identical" true (seq = par)

let suites =
  [
    ( "runtime-pool",
      [
        Alcotest.test_case "map equals sequential" `Quick test_map_equals_sequential;
        Alcotest.test_case "map_list order" `Quick test_map_list_preserves_order;
        Alcotest.test_case "parallel_for coverage" `Quick test_parallel_for_covers_all_indices;
        Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
        Alcotest.test_case "nested use rejected" `Quick test_nested_use_rejected;
        Alcotest.test_case "stats counters" `Quick test_stats_counters;
        Alcotest.test_case "shutdown semantics" `Quick test_shutdown_semantics;
        Alcotest.test_case "seed splitting" `Quick test_seeds_are_stable_and_distinct;
      ] );
    ( "runtime-determinism",
      [
        Alcotest.test_case "uncertain sweep" `Quick test_uncertain_sweep_deterministic;
        Alcotest.test_case "reach MC cloud" `Quick test_reach_cloud_deterministic;
        Alcotest.test_case "ssa replication" `Quick test_ssa_replicate_deterministic;
        Alcotest.test_case "inclusion fraction" `Quick test_inclusion_fraction_deterministic;
        Alcotest.test_case "pontryagin series" `Quick test_pontryagin_series_deterministic;
      ] );
  ]

let () = Alcotest.run "umf_runtime" suites
