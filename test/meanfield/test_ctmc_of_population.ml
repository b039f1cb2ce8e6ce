open Umf_numerics
open Umf_meanfield
module Generator = Umf_ctmc.Generator
module Imprecise_ctmc = Umf_ctmc.Imprecise_ctmc
module Pool = Umf_runtime.Runtime.Pool

let sir () = Umf_models.Sir.make Umf_models.Sir.default_params

let sir_space ?pool:_ n =
  let model = sir () in
  let sp = Ctmc_of_population.state_space model ~n ~x0:[| 0.7; 0.3 |] in
  (model, sp)

let test_sir_state_space () =
  let _, sp = sir_space 10 in
  (* SIR is closed on the S + I <= N simplex *)
  Alcotest.(check int) "simplex size" 66 (Ctmc_of_population.n_states sp);
  Alcotest.(check int) "population size" 10
    (Ctmc_of_population.population_size sp);
  Alcotest.(check int) "initial state is 0" 0 (Ctmc_of_population.x0_index sp);
  let c0 = Ctmc_of_population.counts sp 0 in
  Alcotest.(check (array int)) "initial counts = round(N x0)" [| 7; 3 |] c0;
  Alcotest.(check bool) "density = counts / N" true
    (Vec.approx_equal ~tol:1e-12 [| 0.7; 0.3 |] (Ctmc_of_population.density sp 0));
  (* index is the inverse of counts *)
  for s = 0 to Ctmc_of_population.n_states sp - 1 do
    match Ctmc_of_population.index sp (Ctmc_of_population.counts sp s) with
    | Some s' -> Alcotest.(check int) "index round trip" s s'
    | None -> Alcotest.fail "enumerated state not indexed"
  done;
  Alcotest.(check int) "unreachable counts" 0
    (match Ctmc_of_population.index sp [| 11; 0 |] with Some _ -> 1 | None -> 0)

let test_point_mass_and_reward () =
  let _, sp = sir_space 10 in
  let p0 = Ctmc_of_population.point_mass sp in
  Alcotest.(check (float 0.)) "mass at x0" 1. p0.(0);
  Alcotest.(check (float 0.)) "total mass" 1. (Vec.sum p0);
  let infected = Ctmc_of_population.reward sp (fun x -> x.(1)) in
  Alcotest.(check int) "reward dimension" (Ctmc_of_population.n_states sp)
    (Vec.dim infected);
  Alcotest.(check (float 1e-12)) "reward at x0" 0.3 infected.(0)

let test_generator_matches_propensities () =
  (* the assembled sparse generator must reproduce the model's own
     propensities: exit rate of every state = sum of N·β over classes
     (all SIR change vectors are nonzero, so nothing cancels into the
     diagonal) *)
  let model, sp = sir_space 10 in
  let theta = Optim.Box.midpoint (Model.theta model) in
  let g = Ctmc_of_population.generator sp model ~theta in
  Alcotest.(check int) "generator size" (Ctmc_of_population.n_states sp)
    (Generator.n_states g);
  for s = 0 to Ctmc_of_population.n_states sp - 1 do
    let x = Ctmc_of_population.density sp s in
    let prop = Model.propensities model ~n:10 x theta in
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "exit rate of state %d" s)
      (Vec.sum prop) (Generator.exit_rate g s)
  done

(* For every registry model on a small lattice (adaptively truncated
   where it outgrows 300 states): one Euler step of the imprecise
   chain's backward sweep from a random g is g + dt·min_v (Q_v g) (max
   for the upper sweep), where Q_v is the generator
   [truncated_generator] assembles at the v-th θ-vertex, its leak
   routed to the chain's sink.  The vertex rates the chain tabulates
   once must be the rates the generator assembly evaluates. *)
let small_lattices =
  [
    ("sir", 10); ("sir3", 6); ("sis", 20); ("bike", 10); ("cholera", 4);
    ("gps-poisson", 6); ("gps-map", 20); ("jsq2", 3); ("bikenet", 6);
  ]

let test_imprecise_step_matches_vertex_generators (name, n) () =
  let rng = Rng.create 20261020 in
  let model = Umf_models.Registry.find_exn name in
  let box = Model.theta model in
  let sp =
    Ctmc_of_population.state_space ~theta:box ~clip:(Model.clip model)
      ~max_states:300 ~truncation:`Adaptive model ~n ~x0:(Model.x0 model)
  in
  let ns = Ctmc_of_population.n_states sp in
  let im = Ctmc_of_population.imprecise ~theta:box sp model in
  let nt = Imprecise_ctmc.n_states im in
  Alcotest.(check int) (name ^ ": one sink iff truncated")
    (if Ctmc_of_population.truncated sp then ns + 1 else ns)
    nt;
  let g = Array.init nt (fun _ -> Rng.float rng) in
  (* (Q_v g)(x) at every vertex v, from the assembled generators *)
  let q =
    List.map
      (fun th ->
        let gen, leak =
          Ctmc_of_population.truncated_generator sp model ~theta:th
        in
        Array.init ns (fun x ->
            let row =
              Array.fold_left
                (fun acc (d, r) -> acc +. (r *. (g.(d) -. g.(x))))
                0. (Generator.outgoing gen x)
            in
            if nt > ns then row +. (leak.(x) *. (g.(ns) -. g.(x))) else row))
      (Optim.Box.vertices box)
  in
  let lambda = Imprecise_ctmc.max_exit_bound im in
  let dt = Float.min 0.5 (0.5 /. lambda) in
  List.iter
    (fun (sense, pick) ->
      let step =
        (Imprecise_ctmc.fixed_series ~steps_per_unit:1 ~sense im ~h:g
           ~times:[| dt |])
          .values.(0)
      in
      for x = 0 to ns - 1 do
        let ext =
          List.fold_left (fun acc qv -> pick acc qv.(x)) (List.hd q).(x) q
        in
        let expected = g.(x) +. (dt *. ext) in
        if Float.abs (step.(x) -. expected) > 1e-12 then
          Alcotest.failf "%s n=%d state %d: sweep step %.17g, vertex \
                          generators %.17g"
            name n x step.(x) expected
      done)
    [ (`Lower, Float.min); (`Upper, Float.max) ]

(* The lattices the served answers and the command-line deck build: the
   sizes of the finite-N goldens' imprecise envelopes and first
   passages, and the first-passage sizes of the ctmc-cli benchmark deck
   (sir 8, sis 20 and bike 10, widened by 2 either side, and the sir 3
   and 4 of its warm-up and tiny runs).  [imprecise] tabulates every
   vertex rate there, and [Imprecise_ctmc.make] refuses a negative or
   NaN one, so building the chain is the check; on top, every edge
   carries one finite rate >= 0 per θ-vertex and its exit bound covers
   them. *)
let served_lattices =
  let exact = (`Exact, 2_000_000) and fp = (`Adaptive, 20_000) in
  let span lo hi t = List.init (hi - lo + 1) (fun k -> (lo + k, t)) in
  [
    ("sir", (8, exact) :: span 3 10 fp);
    ("sir3", [ (6, exact); (6, fp) ]);
    ("sis", (20, exact) :: span 18 22 fp);
    ("bike", (10, exact) :: span 8 12 fp);
    ("cholera", [ (4, (`Adaptive, 200)) ]);
    ("gps-poisson", [ (6, (`Adaptive, 200)) ]);
    ("gps-map", [ (20, (`Adaptive, 120)); (3, fp) ]);
    ("jsq2", [ (3, exact); (3, fp) ]);
    ("bikenet", [ (6, exact); (6, fp) ]);
  ]

let test_vertex_rates_admissible (name, sizes) () =
  let model = Umf_models.Registry.find_exn name in
  let box = Model.theta model in
  let n_vertices = List.length (Optim.Box.vertices box) in
  List.iter
    (fun (n, (truncation, max_states)) ->
      let sp =
        Ctmc_of_population.state_space ~theta:box ~clip:(Model.clip model)
          ~max_states ~truncation model ~n ~x0:(Model.x0 model)
      in
      let im = Ctmc_of_population.imprecise ~theta:box sp model in
      let bound = Imprecise_ctmc.max_exit_bound im in
      let exits =
        Array.make_matrix (Imprecise_ctmc.n_states im) n_vertices 0.
      in
      let edges = Imprecise_ctmc.transitions im in
      Alcotest.(check bool)
        (Printf.sprintf "%s n=%d: the chain has edges" name n)
        true (edges <> []);
      List.iter
        (fun { Imprecise_ctmc.src; dst; rates } ->
          if src = dst then
            Alcotest.failf "%s n=%d: self loop at %d" name n src;
          if Array.length rates <> n_vertices then
            Alcotest.failf "%s n=%d: %d -> %d has %d rates for %d vertices"
              name n src dst (Array.length rates) n_vertices;
          Array.iteri
            (fun v r ->
              if not (Float.is_finite r && r >= 0.) then
                Alcotest.failf "%s n=%d: %d -> %d has rate %g at vertex %d"
                  name n src dst r v;
              exits.(src).(v) <- exits.(src).(v) +. r)
            rates)
        edges;
      Array.iteri
        (fun x row ->
          Array.iteri
            (fun v e ->
              if e > bound then
                Alcotest.failf "%s n=%d: state %d exits at %.17g at vertex %d, \
                                over the bound %.17g"
                  name n x e v bound)
            row)
        exits)
    sizes

(* The SSA and the lattice read one rates plan: along an SSA path at the
   θ-midpoint, started from the lattice's initial state, every jump out
   of a retained state is an edge of the generator assembled at that θ
   (or, on a truncated lattice, a transition its leak rate accounts
   for).  The sizes are the served simulate goldens', under an adaptive
   lattice of at most 5000 states. *)
let simulated_lattices =
  [
    ("sir", 50); ("sir3", 50); ("sis", 50); ("bike", 50); ("cholera", 50);
    ("gps-poisson", 60); ("gps-map", 60); ("jsq2", 50); ("bikenet", 30);
  ]

let test_ssa_jumps_are_lattice_edges (name, n) () =
  let model = Umf_models.Registry.find_exn name in
  let theta = Optim.Box.midpoint (Model.theta model) in
  let sp =
    Ctmc_of_population.state_space ~clip:(Model.clip model) ~max_states:5000
      ~truncation:`Adaptive model ~n ~x0:(Model.x0 model)
  in
  let gen, leak = Ctmc_of_population.truncated_generator sp model ~theta in
  let x0 = Array.copy (Ctmc_of_population.density sp 0) in
  let traj =
    Ssa.trajectory model ~n ~x0 ~policy:(Policy.constant theta) ~tmax:1.
      (Rng.create 2016)
  in
  let index x =
    Ctmc_of_population.index sp
      (Array.map (fun xi -> int_of_float (Float.round (xi *. float_of_int n))) x)
  in
  let states = traj.Ode.Traj.states in
  Alcotest.(check (option int)) (name ^ ": starts at the lattice's x0")
    (Some 0) (index states.(0));
  Alcotest.(check bool) (name ^ ": the path jumps") true
    (Array.length states > 2);
  (* the path's last point repeats its state at the horizon *)
  let rec walk i =
    if i < Array.length states then
      match index states.(i - 1) with
      | None -> ()
      | Some s -> (
          match index states.(i) with
          | Some d when d = s -> walk (i + 1)
          | Some d ->
              if not (Array.exists (fun (d', r) -> d' = d && r > 0.)
                        (Generator.outgoing gen s))
              then
                Alcotest.failf "%s n=%d: SSA jump %d -> %d is no generator edge"
                  name n s d;
              walk (i + 1)
          | None ->
              if not (leak.(s) > 0.) then
                Alcotest.failf "%s n=%d: SSA leaves state %d, whose leak is 0"
                  name n s)
  in
  walk 1

let test_pool_assembly_bit_identical () =
  (* N = 50 gives 1326 states, above the sequential-assembly cutoff, so
     the pooled path actually runs *)
  let model, sp = sir_space 50 in
  let theta = Optim.Box.midpoint (Model.theta model) in
  let seq = Ctmc_of_population.generator sp model ~theta in
  let par =
    Pool.with_pool ~domains:2 (fun pool ->
        Ctmc_of_population.generator ~pool sp model ~theta)
  in
  Alcotest.(check int) "same nnz" (Generator.nnz seq) (Generator.nnz par);
  for s = 0 to Ctmc_of_population.n_states sp - 1 do
    let a = Generator.outgoing seq s and b = Generator.outgoing par s in
    if Array.length a <> Array.length b then
      Alcotest.failf "row %d: different lengths" s;
    Array.iteri
      (fun i (d, r) ->
        let d', r' = b.(i) in
        if d <> d' || Int64.bits_of_float r <> Int64.bits_of_float r' then
          Alcotest.failf "row %d entry %d differs" s i)
      a
  done

let test_truncation_is_loud () =
  let model = sir () in
  (* a clip box smaller than the reachable simplex: immunity loss
     pushes S past 0.8 eventually, so enumeration must fail loudly
     instead of silently cutting the lattice *)
  let clip = Optim.Box.make [| 0.; 0. |] [| 0.8; 0.8 |] in
  (match Ctmc_of_population.state_space ~clip model ~n:10 ~x0:[| 0.7; 0.3 |] with
  | _ -> Alcotest.fail "expected Failure on clipped lattice"
  | exception Failure msg ->
      Alcotest.(check bool) "mentions the clip box" true
        (String.length msg > 0));
  (* an explicit state budget that is too small also raises *)
  match Ctmc_of_population.state_space ~max_states:10 model ~n:10 ~x0:[| 0.7; 0.3 |] with
  | _ -> Alcotest.fail "expected Failure on max_states"
  | exception Failure _ -> ()

let test_rounding_preserves_total () =
  (* regression: at n = 25, per-coordinate rounding of n·x0 =
     (17.5, 7.5) gives (18, 8) — 26 counts out of 25 — off the
     S + I <= N simplex, from where infection walks to I = 26 and the
     enumeration (correctly) fails loudly.  Largest-remainder rounding
     must keep the total at 25 and enumerate the full simplex. *)
  let _, sp = sir_space 25 in
  let c0 = Ctmc_of_population.counts sp 0 in
  Alcotest.(check int) "initial total on the simplex" 25 (c0.(0) + c0.(1));
  Alcotest.(check (array int)) "ties break to the lower index" [| 18; 7 |] c0;
  Alcotest.(check int) "full simplex enumerated" (26 * 27 / 2)
    (Ctmc_of_population.n_states sp)

let test_validation () =
  let model = sir () in
  (match Ctmc_of_population.state_space model ~n:0 ~x0:[| 0.7; 0.3 |] with
  | _ -> Alcotest.fail "expected Invalid_argument on n = 0"
  | exception Invalid_argument _ -> ());
  match Ctmc_of_population.state_space model ~n:10 ~x0:[| -0.1; 0.3 |] with
  | _ -> Alcotest.fail "expected Invalid_argument on negative x0"
  | exception Invalid_argument _ -> ()

let suites =
  [
    ( "ctmc_of_population",
      [
        Alcotest.test_case "SIR state space" `Quick test_sir_state_space;
        Alcotest.test_case "point mass and reward" `Quick
          test_point_mass_and_reward;
        Alcotest.test_case "generator matches propensities" `Quick
          test_generator_matches_propensities;
        Alcotest.test_case "pool assembly bit-identical" `Quick
          test_pool_assembly_bit_identical;
        Alcotest.test_case "truncation is loud" `Quick test_truncation_is_loud;
        Alcotest.test_case "rounding preserves the total" `Quick
          test_rounding_preserves_total;
        Alcotest.test_case "validation" `Quick test_validation;
      ] );
    ( "vertex generators",
      List.map
        (fun ((name, _) as c) ->
          Alcotest.test_case name `Quick
            (test_imprecise_step_matches_vertex_generators c))
        small_lattices );
    ( "served lattices",
      List.map
        (fun ((name, _) as c) ->
          Alcotest.test_case name `Quick (test_vertex_rates_admissible c))
        served_lattices );
    ( "ssa on lattice",
      List.map
        (fun ((name, _) as c) ->
          Alcotest.test_case name `Quick (test_ssa_jumps_are_lattice_edges c))
        simulated_lattices );
  ]
