(* Fast parallel smoke check (the @parallel-smoke alias): spins up a
   small pool, exercises one deterministic sweep and one seeded
   stochastic batch, and fails loudly if parallel output ever diverges
   from sequential. *)
open Umf

let () =
  let p = Sir.default_params in
  let di = Sir.di p in
  let model = Sir.make p in
  let times = [| 0.5; 1. |] in
  let seq_lo, seq_hi =
    Uncertain.transient_envelope ~dt:0.1 ~grid:3 di ~x0:Sir.x0 ~times
  in
  let seq_reps =
    Ssa.replicate model ~n:50 ~x0:Sir.x0 ~policy:(Sir.policy_theta1 p)
      ~tmax:1. ~reps:4 ~seed:1
  in
  Runtime.Pool.with_pool ~domains:2 (fun pool ->
      let par_lo, par_hi =
        Uncertain.transient_envelope ~pool ~dt:0.1 ~grid:3 di ~x0:Sir.x0
          ~times
      in
      if not (par_lo = seq_lo && par_hi = seq_hi) then begin
        prerr_endline "parallel-smoke: uncertain sweep diverged";
        exit 1
      end;
      let par_reps =
        Ssa.replicate ~pool model ~n:50 ~x0:Sir.x0
          ~policy:(Sir.policy_theta1 p) ~tmax:1. ~reps:4 ~seed:1
      in
      if par_reps <> seq_reps then begin
        prerr_endline "parallel-smoke: ssa replication diverged";
        exit 1
      end;
      let s = Runtime.Pool.stats pool in
      Printf.printf "parallel-smoke OK (%s)\n" (Runtime.stats_to_string s))
