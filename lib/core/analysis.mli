(** High-level end-to-end analyses.

    Every entry point consumes an {!spec}: one record naming the
    model, the scenario, the θ-box override, the horizon, the solver
    tolerances and an optional {!Umf_runtime.Runtime.Pool} for
    multicore execution.  Build one with {!val-spec} and reuse it
    across analyses; results come back as named records.

    This compilation unit is re-exported unchanged as [Umf.Analysis];
    it stands alone so the serving layers (the NDJSON {!Codec}, the
    [umf_serve] daemon) can consume the spec API without the umbrella
    module. *)

type scenario =
  | Imprecise  (** θ_t may vary arbitrarily in Θ over time. *)
  | Uncertain of int
      (** θ constant but unknown; the payload is the per-axis grid
          resolution used to sweep Θ. *)
  | Piecewise of int
      (** θ switches between [k] constant values at evenly spaced
          times — between [Uncertain] (k = 1) and [Imprecise]. *)

type spec = {
  model : Umf_meanfield.Model.t;
  scenario : scenario;  (** Default [Imprecise]. *)
  theta : Umf_numerics.Optim.Box.t option;
      (** Overrides the model's parameter box when given. *)
  horizon : float;  (** Default 10. *)
  steps : int;  (** Pontryagin grid intervals; default 400. *)
  dt : float;  (** Fixed-step integrator step; default 1e-2. *)
  tol : float;  (** Solver convergence tolerance; default 1e-4. *)
  pool : Umf_runtime.Runtime.Pool.t option;
      (** Fan parallel selections of the inclusion out across these
          domains; [None] (default) runs sequentially.  Results are
          bit-identical for any pool size. *)
  obs : Umf_obs.Obs.t;
      (** Observation context every analysis threads into its
          solvers; default [Obs.off].  When enabled, solver spans,
          counters and gauges reach the context's sinks, the spec's
          pool reports its sections to it for the duration of each
          call, and each result record carries a {!metrics} summary.
          When off, instrumentation costs nothing and results are
          bit-identical. *)
}

val spec :
  ?scenario:scenario ->
  ?theta:Umf_numerics.Optim.Box.t ->
  ?horizon:float ->
  ?steps:int ->
  ?dt:float ->
  ?tol:float ->
  ?pool:Umf_runtime.Runtime.Pool.t ->
  ?obs:Umf_obs.Obs.t ->
  Umf_meanfield.Model.t ->
  spec
(** Smart constructor with the defaults above.
    @raise Invalid_argument unless horizon, dt and tol are finite and
    positive (NaN is refused), on steps below 1, an [Uncertain] grid
    below 2 or a [Piecewise] count outside [1, 64]. *)

val di_of_spec : spec -> Umf_diffinc.Di.t
(** The mean-field differential inclusion the spec denotes (with the
    θ-box override applied). *)

type metrics = {
  wall : float;
      (** Wall seconds of the whole analysis call (0 when obs is
          off). *)
  spans : (string * Umf_obs.Obs.Agg.span_stat) list;
      (** Per-span rows (calls, total and max wall seconds) recorded
          during this call, sorted by name. *)
  counters : (string * float) list;  (** Counter sums, sorted. *)
}
(** Per-call solver-effort summary attached to every result record.
    Populated only when [spec.obs] is enabled; equals {!no_metrics}
    otherwise, so comparing the {e numeric} payload of results is
    meaningful across observed and unobserved runs. *)

val no_metrics : metrics

val metric : metrics -> string -> float option
(** Counter lookup, e.g. [metric m "pontryagin.sweeps"]. *)

type bounds = {
  coord : int;
  times : float array;
  lower : float array;
  upper : float array;
  cert : Umf_numerics.Cert.t;
      (** The endpoint enclosure [lower, upper] at the last time with
          the spec's solver tolerances on the ledger (grid pitch on
          the discretisation line, [tol] on the optimiser line) — a
          tolerance-level annotation, not an a-priori bound. *)
  metrics : metrics;
}
(** Reachability envelope of one coordinate: at [times.(i)] the
    variable lies in [lower.(i), upper.(i)]. *)

val transient_bounds :
  ?times:float array -> spec -> x0:Umf_numerics.Vec.t -> coord:int -> bounds
(** Lower/upper bounds on coordinate [coord] at each sample time
    ([times] defaults to 11 points on [0, horizon]).  Imprecise uses
    the Pontryagin solver on the mean-field differential inclusion;
    [Uncertain g] sweeps constant parameters on a [g]-per-axis
    grid; [Piecewise k] searches the k-piece adversary on a 5-per-axis
    grid at every sample time (inner bounds).  All fan out over
    [spec.pool] when present. *)

val hull_bounds : spec -> x0:Umf_numerics.Vec.t -> Umf_diffinc.Hull.traj
(** The differential-hull over-approximation (fast, conservative),
    clipped to the model's state box ({!Umf_meanfield.Model.clip}). *)

type region = {
  birkhoff : Umf_diffinc.Birkhoff.result;
  area : float;
  converged : bool;  (** [Birkhoff.converged]. *)
  metrics : metrics;
}

val steady_state_region_2d : ?x_start:Umf_numerics.Vec.t -> spec -> region
(** The Birkhoff centre of a 2-variable model (steady-state region of
    the imprecise scenario).  [x_start] defaults to the
    all-coordinates-0.5 seed. *)

type cloud = {
  times : float array;
  states : Umf_numerics.Vec.t array;
  metrics : metrics;
}
(** Sampled states of the finite-N system, [states.(i)] at
    [times.(i)]. *)

val stationary_cloud :
  spec ->
  n:int ->
  x0:Umf_numerics.Vec.t ->
  policy:Umf_meanfield.Policy.t ->
  warmup:float ->
  samples:int ->
  seed:int ->
  cloud
(** Stationary-regime states of the size-N stochastic system under a
    policy, sampled at regular intervals after [warmup] up to
    [spec.horizon]. *)

type inclusion = {
  total : int;
  inside : int;  (** Number of states within the [tol] slack. *)
  fraction : float;  (** [inside / total]. *)
  strict : float;  (** Fraction with no boundary slack. *)
  metrics : metrics;
}

val inclusion_fraction :
  ?tol:float -> spec -> region -> Umf_numerics.Vec.t array -> inclusion
(** Fraction of 2-D sample states inside a Birkhoff region, up to a
    boundary slack [tol] (the convergence diagnostic of Figure 6 —
    policies like θ1 ride exactly along the region boundary, so a
    small slack separates genuine escapes from boundary hugging). *)

type exceedance = { mean : float; worst : float; metrics : metrics }

val mean_exceedance :
  spec -> region -> Umf_numerics.Vec.t array -> exceedance
(** Average (and worst-case) distance by which sample states stick
    out of the region (0 when all inside); the mean converges to 0
    as N → ∞ by Theorem 3. *)

type first_passage = {
  n : int;  (** Population size. *)
  states : int;  (** Retained lattice states. *)
  times : float array;
  hit_lower : float array;
      (** [hit_lower.(j)] <= P(τ <= times.(j)) over every adapted
          θ-process, sweep error already folded in. *)
  hit_upper : float array;
  mfpt_lower : float;
      (** Certified bracket of the truncated mean first-passage time
          E[min(τ, T)], T the last query time. *)
  mfpt_upper : float;
  cert : Umf_numerics.Cert.t;
      (** The MFPT bracket as one certificate: adaptive-sweep
          discretisation and rounding budgets on their ledger lines
          (state-space truncation is priced directly into the hitting
          bounds through the absorbing sink's 0/1 reward). *)
  metrics : metrics;
}

val first_passage :
  ?times:float array ->
  ?epsilon:float ->
  ?max_states:int ->
  spec ->
  n:int ->
  target:(Umf_numerics.Vec.t -> bool) ->
  first_passage
(** Certified first-passage bounds for the finite-N chain ("P(queue
    overflows before t) <= ?"): hitting-probability lower/upper
    bounds for the density-level [target] set at each query time
    ([times] defaults to 101 points on [0, horizon]) and a
    mean-first-passage-time bracket, via adaptive imprecise backward
    sweeps ([Ctmc.Imprecise.adaptive_series], target discretisation
    error [epsilon], default 1e-3) on the chain with the target set
    made absorbing.  The state space is enumerated with [`Adaptive]
    truncation at [max_states] (default 20_000); escaped mass is
    priced at worst case (never hits for the lower bound, hits
    immediately for the upper), so the bounds stay certified outer
    brackets on every registry model, including ones whose lattice
    must truncate.
    @raise Invalid_argument on a model not affine in θ, [n < 1],
    [epsilon <= 0] or empty [times]. *)
