(* End-to-end smoke of the finite-N CTMC engine, wired into
   `dune runtest` through the @ctmc-smoke alias.

   Part 1 is the bitwise A/B gate over every registry model: the dense
   uniformised step (Mat.tmulv of Umf_reference.Dense.uniformized), the
   sparse sequential step and the pooled sparse step at 2 and 4 domains must
   produce the same bits at every state, every step — the contract that
   lets the engine swap kernels freely.  A mismatch fails with the
   model, the step and the first differing state index.

   Part 2 keeps the original SIR end-to-end checks, now through the
   Ctmc.Engine front door. *)

open Umf

let check name ok =
  if not ok then begin
    Printf.eprintf "ctmc-smoke FAILED: %s\n%!" name;
    exit 1
  end

let bits = Int64.bits_of_float

let first_diff a b =
  let n = Array.length a in
  let rec go i =
    if i >= n then None
    else if bits a.(i) <> bits b.(i) then Some i
    else go (i + 1)
  in
  go 0

let require_identical ~model ~step ~what reference candidate =
  match first_diff reference candidate with
  | None -> ()
  | Some i ->
      Printf.eprintf
        "ctmc-smoke FAILED: %s differs from dense reference on %s at step \
         %d, state %d: %h vs %h\n\
         %!"
        what model step i reference.(i) candidate.(i);
      exit 1

(* Largest n <= 50 whose reachable lattice fits the dense-matrix
   budget under exact enumeration.  Models whose finite-N chain is not
   containable in their clip box at any n (cholera: shedding grows B
   without bound) fall back to adaptive truncation — the gate then
   checks sequential vs pooled bits on the substochastic operator
   instead of a dense reference. *)
let space_for model =
  let exact n =
    Ctmc_of_population.state_space ~clip:(Model.clip model) ~max_states:2_000
      model ~n ~x0:(Model.x0 model)
  in
  let rec go n =
    match exact n with
    | sp -> Some (n, sp)
    | exception Failure _ -> if n > 2 then go (n / 2) else None
  in
  match go 50 with
  | Some (n, sp) -> (n, sp)
  | None ->
      ( 50,
        Ctmc_of_population.state_space ~clip:(Model.clip model)
          ~max_states:2_000 ~truncation:`Adaptive model ~n:50
          ~x0:(Model.x0 model) )

let ab_gate pool2 pool4 (name, model) =
  let n, space = space_for model in
  let states = Ctmc_of_population.n_states space in
  check (name ^ ": nonempty lattice") (states > 0);
  let theta = Optim.Box.midpoint (Model.theta model) in
  let truncated = Ctmc_of_population.truncated space in
  let g, leak =
    if truncated then
      let g, leak = Ctmc_of_population.truncated_generator space model ~theta in
      (g, Some leak)
    else (Ctmc_of_population.generator space model ~theta, None)
  in
  (* dense reference only exists for the exact operator: the dense
     uniformised matrix knows nothing of truncation leaks *)
  let p_dense =
    if truncated then None else Some (Umf_reference.Dense.uniformized g)
  in
  let op =
    match leak with
    | Some l -> Ctmc.Sparse.forward ~leak:l g
    | None -> Ctmc.Sparse.forward g
  in
  let v = ref (Ctmc_of_population.point_mass space) in
  let seq = Vec.zeros states in
  let par2 = Vec.zeros states in
  let par4 = Vec.zeros states in
  let leaked = ref 0. in
  for step = 1 to 5 do
    let l0 = Ctmc.Sparse.step_into op !v ~into:seq in
    let l2 = Ctmc.Sparse.step_into ~pool:pool2 op !v ~into:par2 in
    let l4 = Ctmc.Sparse.step_into ~pool:pool4 op !v ~into:par4 in
    if truncated then begin
      check (name ^ ": pooled escaped mass bit-identical")
        (bits l0 = bits l2 && bits l0 = bits l4);
      leaked := !leaked +. l0
    end
    else
      check (name ^ ": exact operator leaks no mass")
        (l0 = 0. && l2 = 0. && l4 = 0.);
    (match p_dense with
    | Some p ->
        let dense = Mat.tmulv p !v in
        require_identical ~model:name ~step ~what:"sparse sequential" dense
          seq
    | None -> ());
    require_identical ~model:name ~step ~what:"sparse 2-domain pool" seq par2;
    require_identical ~model:name ~step ~what:"sparse 4-domain pool" seq par4;
    Vec.blit seq ~into:!v
  done;
  (* the 5-step mass balance: retained + escaped = 1 (up to roundoff) *)
  check (name ^ ": mass accounted for")
    (Float.abs (Vec.sum !v +. !leaked -. 1.) < 1e-12);
  (* one full uniformisation sweep: pooled bits = sequential bits *)
  let p0 = Ctmc_of_population.point_mass space in
  let a, ca = Ctmc.Transient.uniformization ?leak g ~p0 ~t:0.5 in
  let b, cb =
    Ctmc.Transient.uniformization ~pool:pool4 ?leak g ~p0 ~t:0.5
  in
  check (name ^ ": pooled sweep certificate bit-identical")
    (bits ca.Ctmc.Transient.escaped = bits cb.Ctmc.Transient.escaped
    && bits ca.tail = bits cb.tail);
  (match first_diff a b with
  | None -> ()
  | Some i ->
      Printf.eprintf
        "ctmc-smoke FAILED: pooled uniformization differs on %s at state %d: \
         %h vs %h\n\
         %!"
        name i a.(i) b.(i);
      exit 1);
  Printf.printf "ctmc-smoke A/B %-12s n=%-3d states=%-5d %s OK\n%!" name n
    states
    (if truncated then "adaptive" else "exact")

let () =
  let pool2 = Runtime.Pool.create ~domains:2 () in
  let pool4 = Runtime.Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () ->
      Runtime.Pool.shutdown pool2;
      Runtime.Pool.shutdown pool4)
    (fun () -> List.iter (ab_gate pool2 pool4) (Registry.all ()))

(* part 2: the historical SIR end-to-end checks, via the spec front
   door and the Ctmc kernel namespace *)
let () =
  let model = Sir.make Sir.default_params in
  let n = 20 in
  let space = Ctmc_of_population.state_space model ~n ~x0:(Model.x0 model) in
  let states = Ctmc_of_population.n_states space in
  (* reachable lattice of the 2-var SIR: the S+I <= N simplex *)
  check "state count = simplex size" (states = (n + 1) * (n + 2) / 2);
  let theta = Optim.Box.midpoint (Model.theta model) in
  let g = Ctmc_of_population.generator space model ~theta in
  check "nonempty generator" (Ctmc.Generator.nnz g > 0);
  let p0 = Ctmc_of_population.point_mass space in
  let pt = fst (Ctmc.Transient.uniformization g ~p0 ~t:1.) in
  check "mass within epsilon" (Float.abs (Vec.sum pt -. 1.) < 1e-9);
  let ode = Umf_reference.Dense.kolmogorov_ode ~dt:1e-4 g ~p0 ~t:1. in
  check "sparse uniformization = dense ODE reference"
    (Vec.dist_inf pt ode < 1e-6);
  let spec = Ctmc.Engine.spec ~horizon:1. ~times:[| 0.; 1. |] ~n model in
  let tr =
    Ctmc.Engine.transient ~theta spec ~rewards:[| Ctmc.Engine.Coord 1 |]
  in
  check "engine reuses the exact lattice" (tr.Ctmc.Engine.states = states);
  check "t=0 expectation is the initial density"
    (Float.abs (tr.value.(0).(0) -. 0.3) < 1e-12);
  let infected = Ctmc_of_population.reward space (fun x -> x.(1)) in
  check "engine endpoint matches distribution"
    (Float.abs (tr.value.(1).(0) -. Vec.dot infected pt) < 1e-10);
  (* nothing escapes an exact lattice, so the lost mass is the Poisson
     tail: <= epsilon up to the roundoff of summing ~1e2 weights *)
  check "exact engine certificates are tight"
    (Array.for_all (fun l -> l >= 0. && l <= 1e-12 +. 1e-13) tr.lost);
  let st =
    Ctmc.Engine.stationary ~theta spec ~rewards:[| Ctmc.Engine.Coord 1 |]
  in
  check "stationary mass" (Float.abs (Vec.sum st.pi -. 1.) < 1e-9);
  check "stationary fixed point"
    (Vec.norm_inf (Ctmc.Generator.apply_forward g st.pi) < 1e-8);
  print_endline "ctmc-smoke OK"
