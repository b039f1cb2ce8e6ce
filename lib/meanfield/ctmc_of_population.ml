open Umf_numerics
module Obs = Umf_obs.Obs
module Pool = Umf_runtime.Runtime.Pool
module Generator = Umf_ctmc.Generator
module Imprecise_ctmc = Umf_ctmc.Imprecise_ctmc

type space = {
  pop_n : int;
  counts : int array array;
  dens : Vec.t array;
  index : (int array, int) Hashtbl.t;
  (* per transition class: integer change vector and, per state, the
     support flag found during enumeration *)
  changes : int array array;
  probes : Vec.t array;
  (* rates at or below this threshold are treated as structural zeros:
     boundary rates like max(0, 1 - s - i) do not vanish exactly in
     floating point, and without a threshold the roundoff residue
     (~1e-16) would count as support and walk the BFS off the lattice *)
  support_tol : float;
  (* adaptive: enumeration was allowed to stop at the budget / clip box
     instead of failing; truncated: it actually did, so transitions out
     of the retained set exist and must be accounted as leak *)
  adaptive : bool;
  truncated : bool;
}

let n_states sp = Array.length sp.counts

let population_size sp = sp.pop_n

let adaptive sp = sp.adaptive

let truncated sp = sp.truncated

let x0_index _sp = 0

let counts sp i = sp.counts.(i)

let density sp i = sp.dens.(i)

let index sp c = Hashtbl.find_opt sp.index c

let point_mass sp =
  let p = Vec.zeros (n_states sp) in
  p.(0) <- 1.;
  p

let reward sp f = Array.map f sp.dens

let int_changes (trs : Model.transition array) =
  Array.map
    (fun (tr : Model.transition) ->
      Array.map
        (fun c ->
          let r = Float.round c in
          if Float.abs (c -. r) > 1e-9 then
            invalid_arg
              ("Ctmc_of_population: non-integral change vector in transition "
             ^ tr.name);
          int_of_float r)
        tr.change)
    trs

(* Support probing: [support model ~probes ~tol x ti] says whether
   transition [ti] is supported at density [x] — its rate exceeds [tol]
   at some probe θ, tried in probe order and stopping at the first that
   does.  Applying it to [x] starts a fresh per-state cache, so the
   rates plan runs at most once per probe and state, and only for
   probes some transition reaches.
   @raise Invalid_argument on a NaN rate the search reads. *)
let support model ~probes ~tol =
  let plan = Model.rates_plan model in
  let trs = Array.of_list (Model.transitions model) in
  let rates = Array.map (fun _ -> Vec.zeros (Array.length trs)) probes in
  let probed = Array.make (Array.length probes) false in
  fun x ->
    Array.fill probed 0 (Array.length probed) false;
    fun ti ->
      let rec go j =
        j < Array.length probes
        &&
        (if not probed.(j) then begin
           Tape.Plan.run plan ~x ~th:probes.(j) ~out:rates.(j);
           probed.(j) <- true
         end;
         let r = rates.(j).(ti) in
         if Float.is_nan r then
           invalid_arg
             ("Ctmc_of_population: NaN rate in transition " ^ trs.(ti).Model.name);
         r > tol || go (j + 1))
      in
      go 0

let density_of ~nf c = Array.map (fun k -> float_of_int k /. nf) c

let state_space ?(obs = Obs.off) ?theta ?clip ?(max_states = 2_000_000)
    ?(support_tol = 1e-12) ?(truncation = `Exact) model ~n ~x0 =
  if n <= 0 then invalid_arg "Ctmc_of_population: need n > 0";
  if not (support_tol >= 0.) then
    invalid_arg "Ctmc_of_population: support_tol < 0";
  let dim = Model.dim model in
  if Vec.dim x0 <> dim then
    invalid_arg "Ctmc_of_population: x0 dimension mismatch";
  let theta_box = match theta with Some b -> b | None -> Model.theta model in
  if Optim.Box.dim theta_box <> Model.theta_dim model then
    invalid_arg "Ctmc_of_population: theta box dimension mismatch";
  let clip =
    match clip with
    | Some b ->
        if Optim.Box.dim b <> dim then
          invalid_arg "Ctmc_of_population: clip dimension mismatch";
        b
    | None -> Optim.Box.make (Vec.zeros dim) (Vec.create dim 1.)
  in
  let sp = Obs.span_begin obs "ctmc.state_space" in
  let nf = float_of_int n in
  let lo =
    Array.map (fun v -> int_of_float (Float.ceil ((v *. nf) -. 1e-9))) clip.lo
  in
  let hi =
    Array.map (fun v -> int_of_float (Float.floor ((v *. nf) +. 1e-9))) clip.hi
  in
  (* round n·x0 to the lattice by largest remainder, preserving the
     rounded total count: per-coordinate rounding can overshoot a
     conserved total (n·x0 = (17.5, 7.5) would round to 26 counts out
     of n = 25) and push the initial state off the model's invariant
     manifold *)
  let c0 =
    let scaled =
      Array.map
        (fun v ->
          if v < 0. then invalid_arg "Ctmc_of_population: negative x0";
          v *. nf)
        x0
    in
    let floors =
      Array.map (fun v -> int_of_float (Float.floor (v +. 1e-9))) scaled
    in
    let total =
      int_of_float (Float.round (Array.fold_left ( +. ) 0. scaled))
    in
    let rem = total - Array.fold_left ( + ) 0 floors in
    if rem > 0 then begin
      let order = Array.init (Array.length scaled) Fun.id in
      Array.sort
        (fun i j ->
          let fi = scaled.(i) -. float_of_int floors.(i)
          and fj = scaled.(j) -. float_of_int floors.(j) in
          if fi <> fj then compare fj fi else compare i j)
        order;
      for k = 0 to Stdlib.min rem (Array.length order) - 1 do
        floors.(order.(k)) <- floors.(order.(k)) + 1
      done
    end;
    floors
  in
  Array.iteri
    (fun i c ->
      if c < lo.(i) || c > hi.(i) then
        invalid_arg "Ctmc_of_population: x0 outside clip box")
    c0;
  let trs = Array.of_list (Model.transitions model) in
  let changes = int_changes trs in
  let probes =
    Array.of_list (Optim.Box.midpoint theta_box :: Optim.Box.vertices theta_box)
  in
  let index = Hashtbl.create 4096 in
  let states = ref [] and n_found = ref 0 in
  let adaptive = truncation = `Adaptive in
  let truncated = ref false in
  let queue = Queue.create () in
  (* under `Adaptive a refused add is not an error: the state stays
     outside the retained set and its incoming transitions become leak
     edges, certified later by [truncated_generator] *)
  let add c =
    if !n_found >= max_states then begin
      if adaptive then begin
        truncated := true;
        false
      end
      else
        failwith
          (Printf.sprintf
             "Ctmc_of_population: state space exceeds max_states = %d"
             max_states)
    end
    else begin
      Hashtbl.add index c !n_found;
      states := c :: !states;
      incr n_found;
      Queue.add c queue;
      true
    end
  in
  if not (add c0) then
    invalid_arg "Ctmc_of_population: max_states < 1";
  let support = support model ~probes ~tol:support_tol in
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    let supported = support (density_of ~nf c) in
    Array.iteri
      (fun ti (tr : Model.transition) ->
        if supported ti then begin
          let c' = Array.mapi (fun i k -> k + changes.(ti).(i)) c in
          let inside = ref true in
          for i = 0 to dim - 1 do
            if c'.(i) < lo.(i) || c'.(i) > hi.(i) then inside := false
          done;
          if not !inside then begin
            if adaptive then truncated := true
            else
              failwith
                (Printf.sprintf
                   "Ctmc_of_population: transition %s leaves the clip box \
                    (state space would be truncated)"
                   tr.name)
          end
          else if not (Hashtbl.mem index c') then ignore (add c' : bool)
        end)
      trs
  done;
  let counts = Array.of_list (List.rev !states) in
  let dens = Array.map (density_of ~nf) counts in
  if Obs.enabled obs then begin
    Obs.count obs "ctmc.states" (Array.length counts);
    Obs.span_end
      ~metrics:
        [
          ("states", float_of_int (Array.length counts));
          ("truncated", if !truncated then 1. else 0.);
        ]
      obs sp
  end
  else Obs.span_end obs sp;
  {
    pop_n = n;
    counts;
    dens;
    index;
    changes;
    probes;
    support_tol;
    adaptive;
    truncated = !truncated;
  }

(* Row assembly for one source state: absolute rates N·β(x, θ) per
   class, read from row [r] of a batched rates-plan evaluation, targets
   resolved through the index, merged by destination (stable sort, so
   duplicate targets sum in class order). *)
let assemble_row ?on_escape sp (trs : Model.transition array) ~nf ~betas ~r s =
  let pairs = ref [] and count = ref 0 in
  Array.iteri
    (fun ti (tr : Model.transition) ->
      let beta = Mat.get betas r ti in
      if Float.is_nan beta || beta < 0. then
        invalid_arg
          ("Ctmc_of_population: invalid rate in transition " ^ tr.name);
      if beta > sp.support_tol then begin
        let c' = Array.mapi (fun i k -> k + sp.changes.(ti).(i)) sp.counts.(s) in
        match Hashtbl.find_opt sp.index c' with
        | Some d when d <> s ->
            pairs := (d, nf *. beta) :: !pairs;
            incr count
        | Some _ -> ()
        | None -> (
            (* target outside the retained set: a truncated space feeds
               it to the leak accumulator (in class order, so the sum is
               deterministic); an exact space treats it as a bug *)
            match on_escape with
            | Some f -> f (nf *. beta)
            | None ->
                failwith
                  (Printf.sprintf
                     "Ctmc_of_population: transition %s has positive rate \
                      outside the enumerated space (missed support at the \
                      probe thetas)"
                     tr.name))
      end)
    trs;
  let row = Array.make !count (0, 0.) in
  (* !pairs is in reverse class order; fill backwards to restore it *)
  List.iteri (fun i p -> row.(!count - 1 - i) <- p) !pairs;
  Array.stable_sort (fun (a, _) (b, _) -> compare a b) row;
  (* merge duplicate destinations, summing in class order *)
  let m = Array.length row in
  let uniq = ref 0 in
  let i = ref 0 in
  while !i < m do
    let d, r = row.(!i) in
    let acc = ref r in
    incr i;
    while !i < m && fst row.(!i) = d do
      acc := !acc +. snd row.(!i);
      incr i
    done;
    row.(!uniq) <- (d, !acc);
    incr uniq
  done;
  if !uniq = m then row else Array.sub row 0 !uniq

(* Shared assembly driver: all transition rates for a block of states
   in one [run_batch] dispatch per tape instruction, then per-row
   bookkeeping from the precomputed β.  Each row depends only on its
   own state and the batch kernel is bit-identical to a scalar
   [Plan.run], so any block size — and any pool partition — yields the
   same generator.  [escape], when present, receives (state, absolute
   rate) for every supported transition whose target is outside the
   retained set; leak writes are index-owned per state so any pool
   partition accumulates them bit-identically. *)
let assemble_rows ?pool ?escape sp model ~theta rows =
  let nf = float_of_int sp.pop_n in
  let ns = n_states sp in
  let escape_for s = Option.map (fun f -> f s) escape in
  let plan = Model.rates_plan model in
  let trs = Array.of_list (Model.transitions model) in
  let ntr = Array.length trs in
  let dim = Model.dim model in
  let td = Vec.dim theta in
  let block = 8192 in
  let n_blocks = (ns + block - 1) / block in
  let fill_block bi =
    let b0 = bi * block in
    let bn = Stdlib.min block (ns - b0) in
    let xs = Mat.zeros bn dim and ths = Mat.zeros bn (Stdlib.max 1 td) in
    for r = 0 to bn - 1 do
      let x = sp.dens.(b0 + r) in
      for i = 0 to dim - 1 do
        Mat.set xs r i x.(i)
      done;
      for i = 0 to td - 1 do
        Mat.set ths r i theta.(i)
      done
    done;
    let betas = Mat.zeros bn ntr in
    Tape.Plan.run_batch plan ~xs ~ths ~out:betas;
    for r = 0 to bn - 1 do
      let s = b0 + r in
      rows.(s) <- assemble_row ?on_escape:(escape_for s) sp trs ~nf ~betas ~r s
    done
  in
  match pool with
  | Some p when ns > 1024 ->
      Pool.parallel_for ~stage:"ctmc-assemble" p n_blocks fill_block
  | _ ->
      for bi = 0 to n_blocks - 1 do
        fill_block bi
      done

let generator ?pool ?(obs = Obs.off) sp model ~theta =
  if Vec.dim theta <> Model.theta_dim model then
    invalid_arg "Ctmc_of_population: theta dimension mismatch";
  if sp.truncated then
    failwith
      "Ctmc_of_population.generator: space was adaptively truncated — its \
       exits carry probability mass; use truncated_generator";
  let span = Obs.span_begin obs "ctmc.assemble" in
  let ns = n_states sp in
  let rows = Array.make ns [||] in
  assemble_rows ?pool sp model ~theta rows;
  let g = Generator.of_rows rows in
  if Obs.enabled obs then begin
    Obs.count obs "ctmc.nnz" (Generator.nnz g);
    Obs.span_end
      ~metrics:[ ("nnz", float_of_int (Generator.nnz g)) ]
      obs span
  end
  else Obs.span_end obs span;
  g

let truncated_generator ?pool ?(obs = Obs.off) sp model ~theta =
  if Vec.dim theta <> Model.theta_dim model then
    invalid_arg "Ctmc_of_population: theta dimension mismatch";
  let span = Obs.span_begin obs "ctmc.assemble" in
  let ns = n_states sp in
  let rows = Array.make ns [||] in
  let leak = Vec.zeros ns in
  (* only a truncated space may legitimately lose edges; on a fully
     enumerated space a missing target is still a missed-support bug *)
  let escape =
    if sp.truncated then
      Some (fun s r -> leak.(s) <- leak.(s) +. r)
    else None
  in
  assemble_rows ?pool ?escape sp model ~theta rows;
  let g = Generator.of_rows rows in
  if Obs.enabled obs then begin
    let boundary = ref 0 in
    Array.iter (fun l -> if l > 0. then incr boundary) leak;
    Obs.count obs "ctmc.nnz" (Generator.nnz g);
    Obs.gauge obs "ctmc.boundary_states" (float_of_int !boundary);
    Obs.span_end
      ~metrics:
        [
          ("nnz", float_of_int (Generator.nnz g));
          ("boundary", float_of_int !boundary);
        ]
      obs span
  end
  else Obs.span_end obs span;
  (g, leak)

let imprecise ?theta sp model =
  let theta_box = match theta with Some b -> b | None -> Model.theta model in
  let nf = float_of_int sp.pop_n in
  let ns = n_states sp in
  (* a truncated space gets one absorbing sink state (index n_states):
     escaped edges route there, so a backward sweep that pins the
     sink's reward at the full-space extremum yields certified outer
     bounds instead of failing *)
  let sink = ns in
  let n_total = if sp.truncated then ns + 1 else ns in
  let plan = Model.rates_plan model in
  let trs = Array.of_list (Model.transitions model) in
  let ntr = Array.length trs in
  let vertices = Array.of_list (Optim.Box.vertices theta_box) in
  let nv = Array.length vertices in
  let at_vertex = Array.map (fun _ -> Vec.zeros ntr) vertices in
  let support = support model ~probes:sp.probes ~tol:sp.support_tol in
  (* built back to front, so the list runs by state and, within a
     state, in class order *)
  let transitions = ref [] in
  for s = ns - 1 downto 0 do
    let x = sp.dens.(s) in
    let supported = support x in
    (* the rates plan runs once per (state, vertex); the sweep reads
       these floats at every step *)
    Array.iteri
      (fun v th -> Tape.Plan.run plan ~x ~th ~out:at_vertex.(v))
      vertices;
    for ti = ntr - 1 downto 0 do
      if supported ti then begin
        let name = trs.(ti).Model.name in
        let c' =
          Array.mapi (fun i k -> k + sp.changes.(ti).(i)) sp.counts.(s)
        in
        let dst =
          match Hashtbl.find_opt sp.index c' with
          | Some d -> if d = s then None else Some d
          | None when sp.truncated -> Some sink
          | None ->
              failwith
                (Printf.sprintf
                   "Ctmc_of_population: transition %s has positive rate \
                    outside the enumerated space (missed support at the \
                    probe thetas)"
                   name)
        in
        Option.iter
          (fun dst ->
            let rates =
              Array.init nv (fun v ->
                  let beta = at_vertex.(v).(ti) in
                  if Float.is_nan beta then
                    invalid_arg
                      ("Ctmc_of_population: NaN rate in transition " ^ name);
                  nf *. beta)
            in
            transitions := { Imprecise_ctmc.src = s; dst; rates } :: !transitions)
          dst
      end
    done
  done;
  Imprecise_ctmc.make ~n:n_total ~theta:theta_box !transitions
