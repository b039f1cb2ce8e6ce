(* High-level end-to-end analyses over one spec record.  This module
   used to live inside Umf; it is its own compilation unit so that
   sibling layers (the NDJSON Codec, the serve daemon) can consume the
   spec API without going through the umbrella module.  Umf re-exports
   it unchanged as [Umf.Analysis]. *)

module Vec = Umf_numerics.Vec
module Interval = Umf_numerics.Interval
module Cert = Umf_numerics.Cert
module Optim = Umf_numerics.Optim
module Geometry = Umf_numerics.Geometry
module Rng = Umf_numerics.Rng
module Model = Umf_meanfield.Model
module Ssa = Umf_meanfield.Ssa
module Ctmc_of_population = Umf_meanfield.Ctmc_of_population
module Imprecise = Umf_ctmc.Imprecise_ctmc
module Runtime = Umf_runtime.Runtime
module Obs = Umf_obs.Obs
module Di = Umf_diffinc.Di
module Hull = Umf_diffinc.Hull
module Pontryagin = Umf_diffinc.Pontryagin
module Uncertain = Umf_diffinc.Uncertain
module Birkhoff = Umf_diffinc.Birkhoff
module Scenario = Umf_diffinc.Scenario

type scenario = Imprecise | Uncertain of int | Piecewise of int

type spec = {
  model : Model.t;
  scenario : scenario;
  theta : Optim.Box.t option;
  horizon : float;
  steps : int;
  dt : float;
  tol : float;
  pool : Runtime.Pool.t option;
  obs : Obs.t;
}

let spec ?(scenario = Imprecise) ?theta ?(horizon = 10.) ?(steps = 400)
    ?(dt = 1e-2) ?(tol = 1e-4) ?pool ?(obs = Obs.off) model =
  (* written so that NaN fails too *)
  let positive name x =
    if not (x > 0. && x < infinity) then
      invalid_arg (Printf.sprintf "Analysis.spec: need finite %s > 0" name)
  in
  positive "horizon" horizon;
  if steps < 1 then invalid_arg "Analysis.spec: need steps >= 1";
  positive "dt" dt;
  positive "tol" tol;
  (match scenario with
  | Uncertain g when g < 2 -> invalid_arg "Analysis.spec: need grid >= 2"
  | Uncertain g ->
      Optim.Box.check_grid ~who:"Analysis.spec"
        (Option.value theta ~default:(Model.theta model))
        g
  | Piecewise k when k < 1 || k > 64 ->
      (* a fixed cap keeps one search bounded: past the exhaustive
         range its cost grows linearly in k *)
      invalid_arg "Analysis.spec: need 1 <= pieces <= 64"
  | Piecewise _ | Imprecise -> ());
  { model; scenario; theta; horizon; steps; dt; tol; pool; obs }

let di_of_spec s =
  let di = Di.of_model s.model in
  match s.theta with None -> di | Some box -> { di with Di.theta = box }

type metrics = {
  wall : float;
  spans : (string * Obs.Agg.span_stat) list;
  counters : (string * float) list;
}

let no_metrics = { wall = 0.; spans = []; counters = [] }

let metric m name = try Some (List.assoc name m.counters) with Not_found -> None

(* Run one analysis under the spec's observation context, collecting
   a per-call metrics summary in an ephemeral Agg layered over the
   caller's sinks.  When the spec observes nothing this degenerates
   to a bare call: no registry, no clock reads, no allocation — the
   zero-cost-when-off contract. *)
let instrumented s name f =
  if not (Obs.enabled s.obs) then (f s.obs, no_metrics)
  else begin
    let agg = Obs.Agg.create () in
    let obs = Obs.with_agg s.obs agg in
    (match s.pool with Some p -> Runtime.Pool.set_obs p obs | None -> ());
    let restore () =
      match s.pool with Some p -> Runtime.Pool.set_obs p s.obs | None -> ()
    in
    let x =
      Fun.protect ~finally:restore (fun () ->
          let sp = Obs.span_begin obs name in
          let x = f obs in
          Obs.span_end obs sp;
          x)
    in
    let wall =
      match Obs.Agg.span_stat agg name with
      | Some st -> st.Obs.Agg.total
      | None -> 0.
    in
    ( x,
      {
        wall;
        spans = Obs.Agg.span_stats agg;
        counters = Obs.Agg.counters agg;
      } )
  end

type bounds = {
  coord : int;
  times : float array;
  lower : float array;
  upper : float array;
  cert : Cert.t;
  metrics : metrics;
}

(* Report a result's error ledger as Obs gauges so traced runs carry
   the budget next to the solver spans. *)
let gauge_cert obs name (c : Cert.t) =
  if Obs.enabled obs then
    List.iter
      (fun (line, v) -> Obs.gauge obs (name ^ ".cert." ^ line) v)
      (Cert.lines c)

let transient_bounds ?times s ~x0 ~coord =
  let times =
    match times with Some ts -> ts | None -> Vec.linspace 0. s.horizon 11
  in
  let di = di_of_spec s in
  let (pairs, cert), metrics =
    instrumented s "analysis.transient_bounds" (fun obs ->
        let pairs =
          match s.scenario with
          | Imprecise ->
              Pontryagin.bound_series ?pool:s.pool ~steps:s.steps ~tol:s.tol
                ~obs di ~x0 ~coord ~times
          | Uncertain grid ->
              let lower, upper =
                Uncertain.transient_envelope ?pool:s.pool ~obs ~dt:s.dt ~grid
                  di ~x0 ~times
              in
              Array.init (Array.length times) (fun i ->
                  (lower.(i).(coord), upper.(i).(coord)))
          | Piecewise k ->
              (* one extremal search per sample time: inner bounds of the
                 k-piece adversary, no shared sweep to reuse *)
              Array.map
                (fun t ->
                  if t <= 0. then (x0.(coord), x0.(coord))
                  else
                    Scenario.extremal_coord ?pool:s.pool ~obs ~steps:s.steps
                      ~dt:s.dt (Scenario.Piecewise k) di ~x0 ~coord
                      ~horizon:t)
                times
        in
        let last = Array.length pairs - 1 in
        let lo, hi = pairs.(last) in
        (* the endpoint enclosure with the spec's solver tolerances on
           the ledger: a tolerance-level annotation (what the solver
           aimed for), not an a-priori bound like the imprecise-sweep
           certificates *)
        let cert =
          Cert.of_interval
            ~budget:
              (Cert.budget
                 ~discretisation:
                   (match s.scenario with
                   | Imprecise -> s.horizon /. float_of_int s.steps
                   | Uncertain _ | Piecewise _ -> s.dt)
                 ~optimiser:s.tol ())
            (Interval.make (Float.min lo hi) (Float.max lo hi))
        in
        gauge_cert obs "analysis.transient_bounds" cert;
        (pairs, cert))
  in
  {
    coord;
    times;
    lower = Array.map fst pairs;
    upper = Array.map snd pairs;
    cert;
    metrics;
  }

let hull_bounds s ~x0 =
  fst
    (instrumented s "analysis.hull_bounds" (fun obs ->
         Hull.bounds ~clip:(Model.clip s.model) ~obs (di_of_spec s) ~x0
           ~horizon:s.horizon ~dt:s.dt))

type region = {
  birkhoff : Birkhoff.result;
  area : float;
  converged : bool;
  metrics : metrics;
}

let steady_state_region_2d ?x_start s =
  let x_start =
    match x_start with
    | Some x -> x
    | None -> Vec.create (Model.dim s.model) 0.5
  in
  let b, metrics =
    instrumented s "analysis.steady_state_region_2d" (fun obs ->
        Birkhoff.compute ~obs (di_of_spec s) ~x_start)
  in
  {
    birkhoff = b;
    area = Birkhoff.area b;
    converged = Birkhoff.converged b;
    metrics;
  }

type cloud = { times : float array; states : Vec.t array; metrics : metrics }

let stationary_cloud s ~n ~x0 ~policy ~warmup ~samples ~seed =
  if samples <= 0 then invalid_arg "Analysis.stationary_cloud: samples <= 0";
  if warmup >= s.horizon then
    invalid_arg "Analysis.stationary_cloud: warmup >= horizon";
  let times =
    Array.init samples (fun i ->
        warmup
        +. (s.horizon -. warmup)
           *. float_of_int (i + 1)
           /. float_of_int samples)
  in
  let states, metrics =
    instrumented s "analysis.stationary_cloud" (fun obs ->
        Ssa.sampled ~obs s.model ~n ~x0 ~policy ~times (Rng.create seed))
  in
  { times; states; metrics }

type inclusion = {
  total : int;
  inside : int;  (** Number of states within the [tol] slack. *)
  fraction : float;
  strict : float;  (** Fraction with no boundary slack. *)
  metrics : metrics;
}

(* chunked fold over states: per-chunk partials with a FIXED chunk
   size, combined in chunk order — the same association whether the
   partials are computed here or on pool workers, so pool presence
   and domain count never change a single bit of the result *)
let chunked_fold ?pool ~per_state ~combine ~init states =
  let total = Array.length states in
  let chunk = 1024 in
  if total <= chunk then Array.fold_left per_state init states
  else begin
    let n_chunks = (total + chunk - 1) / chunk in
    let partial ci =
      let lo = ci * chunk in
      let hi = Stdlib.min total (lo + chunk) in
      let acc = ref init in
      for i = lo to hi - 1 do
        acc := per_state !acc states.(i)
      done;
      !acc
    in
    let partials =
      match pool with
      | Some p ->
          Runtime.Pool.parallel_map ~stage:"analysis-fold" ~chunk:1 p
            partial
            (Array.init n_chunks Fun.id)
      | None -> Array.init n_chunks partial
    in
    Array.fold_left combine init partials
  end

(* shared cores: the spec entry points wrap these in [instrumented] *)
let inclusion_counts ?pool ?tol b states =
  let count (slack, strict) x =
    let p = (x.(0), x.(1)) in
    ( (slack + if Birkhoff.contains ?tol b p then 1 else 0),
      strict + if Birkhoff.contains b p then 1 else 0 )
  in
  chunked_fold ?pool states ~init:(0, 0) ~per_state:count
    ~combine:(fun (a, b) (c, d) -> (a + c, b + d))

let exceedance_stats ?pool polygon states =
  let step (acc, worst) x =
    let d = Geometry.violation_depth (x.(0), x.(1)) polygon in
    (acc +. d, Float.max worst d)
  in
  chunked_fold ?pool states ~init:(0., 0.) ~per_state:step
    ~combine:(fun (a, w) (a', w') -> (a +. a', Float.max w w'))

let inclusion_fraction ?tol s region states =
  if Array.length states = 0 then
    invalid_arg "Analysis.inclusion_fraction: no states";
  let (inside, strict_inside), metrics =
    instrumented s "analysis.inclusion_fraction" (fun _obs ->
        inclusion_counts ?pool:s.pool ?tol region.birkhoff states)
  in
  let total = Array.length states in
  {
    total;
    inside;
    fraction = float_of_int inside /. float_of_int total;
    strict = float_of_int strict_inside /. float_of_int total;
    metrics;
  }

type exceedance = { mean : float; worst : float; metrics : metrics }

let mean_exceedance s region states =
  if Array.length states = 0 then
    invalid_arg "Analysis.mean_exceedance: no states";
  let (acc, worst), metrics =
    instrumented s "analysis.mean_exceedance" (fun _obs ->
        exceedance_stats ?pool:s.pool region.birkhoff.Birkhoff.polygon
          states)
  in
  { mean = acc /. float_of_int (Array.length states); worst; metrics }

type first_passage = {
  n : int;
  states : int;
  times : float array;
  hit_lower : float array;
  hit_upper : float array;
  mfpt_lower : float;
  mfpt_upper : float;
  cert : Cert.t;
  metrics : metrics;
}

let clamp01 x = if x < 0. then 0. else if x > 1. then 1. else x

(* Certified first-passage bounds for the finite-N chain via the
   imprecise engine: make the target set (and any truncation sink)
   absorbing, then the hitting probability P(τ <= t) equals
   P(X_t ∈ target) on the absorbed chain, which the adaptive backward
   sweeps bound from both sides over every adapted θ-process.  The
   sink reward is pinned at 0 (lower) / 1 (upper) so escaped mass is
   priced at worst case; each sweep's certified discretisation and
   rounding error is folded into the hitting bounds before anything
   else consumes them.  The truncated mean first-passage time
   E[min(τ, T)] = T − ∫₀ᵀ P(τ <= s) ds is then bracketed by monotone
   Riemann sums (P(τ <= ·) is nondecreasing): left endpoints of the
   lower bounds under-integrate, right endpoints of the upper bounds
   over-integrate. *)
let first_passage ?times ?(epsilon = 1e-3) ?(max_states = 20_000) s ~n
    ~target =
  if n < 1 then invalid_arg "Analysis.first_passage: need n >= 1";
  if not (epsilon > 0.) then
    invalid_arg "Analysis.first_passage: need epsilon > 0";
  if not (Model.affine_in_theta s.model) then
    invalid_arg
      "Analysis.first_passage: imprecise finite-N bounds need rates affine \
       in theta (vertex extremisation is only exact there)";
  let times =
    match times with
    | Some ts ->
        if Array.length ts = 0 then
          invalid_arg "Analysis.first_passage: empty times";
        ts
    | None -> Vec.linspace 0. s.horizon 101
  in
  let box =
    match s.theta with Some b -> b | None -> Model.theta s.model
  in
  let result, metrics =
    instrumented s "analysis.first_passage" (fun obs ->
        let sp =
          Ctmc_of_population.state_space ~obs ~theta:box
            ~clip:(Model.clip s.model) ~max_states ~truncation:`Adaptive
            s.model ~n ~x0:(Model.x0 s.model)
        in
        let states = Ctmc_of_population.n_states sp in
        let ind =
          Ctmc_of_population.reward sp (fun x ->
              if target x then 1. else 0.)
        in
        let im = Ctmc_of_population.imprecise ~theta:box sp s.model in
        let has_sink = Imprecise.n_states im > states in
        let im =
          Imprecise.absorbing im ~target:(fun i ->
              i < states && ind.(i) = 1.)
        in
        let extend sink_value =
          if has_sink then Array.append ind [| sink_value |] else ind
        in
        let x0i = Ctmc_of_population.x0_index sp in
        let lo =
          Imprecise.adaptive_series ?pool:s.pool ~obs ~epsilon
            ~sense:`Lower im ~h:(extend 0.) ~times
        in
        let hi =
          Imprecise.adaptive_series ?pool:s.pool ~obs ~epsilon
            ~sense:`Upper im ~h:(extend 1.) ~times
        in
        let nt = Array.length times in
        let hit_lower =
          Array.init nt (fun j ->
              clamp01
                (lo.Imprecise.values.(j).(x0i)
                -. lo.eps.(j) -. lo.rounding.(j)))
        in
        let hit_upper =
          Array.init nt (fun j ->
              clamp01
                (hi.Imprecise.values.(j).(x0i)
                +. hi.eps.(j) +. hi.rounding.(j)))
        in
        (* P(τ <= ·) is nondecreasing, so the running max of the lower
           bounds (and, backwards, the running min of the upper ones)
           is still a sound bracket — it undoes the drift of the
           accumulating sweep budget at late times *)
        for j = 1 to nt - 1 do
          hit_lower.(j) <- Float.max hit_lower.(j) hit_lower.(j - 1)
        done;
        for j = nt - 2 downto 0 do
          hit_upper.(j) <- Float.min hit_upper.(j) hit_upper.(j + 1)
        done;
        let horizon = times.(nt - 1) in
        (* ∫₀ᵀ P: the leading [0, times.(0)] segment contributes 0 to
           the lower sum and t₀·hit_upper.(0) to the upper one *)
        let int_lo = ref 0. and int_hi = ref (times.(0) *. hit_upper.(0)) in
        for j = 0 to nt - 2 do
          let dt = times.(j + 1) -. times.(j) in
          int_lo := !int_lo +. (dt *. hit_lower.(j));
          int_hi := !int_hi +. (dt *. hit_upper.(j + 1))
        done;
        let mfpt_lower = Float.max 0. (horizon -. !int_hi) in
        let mfpt_upper = Float.min horizon (horizon -. !int_lo) in
        let cert =
          Cert.of_interval
            ~budget:
              (Cert.budget
                 ~discretisation:
                   (Float.max lo.eps.(nt - 1) hi.eps.(nt - 1))
                 ~rounding:
                   (Float.max lo.rounding.(nt - 1) hi.rounding.(nt - 1))
                 ())
            (Interval.make mfpt_lower mfpt_upper)
        in
        gauge_cert obs "analysis.first_passage" cert;
        if Obs.enabled obs then
          Obs.count obs "first_passage.sweep_steps" (lo.steps + hi.steps);
        {
          n;
          states;
          times;
          hit_lower;
          hit_upper;
          mfpt_lower;
          mfpt_upper;
          cert;
          metrics = no_metrics;
        })
  in
  { result with metrics }
