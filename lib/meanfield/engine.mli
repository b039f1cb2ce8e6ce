(** The finite-N CTMC engine behind one spec record.

    Declare the model, scenario, population size, horizon, tolerance
    and truncation policy once in a {!spec} (mirroring
    [Analysis.spec]), then ask for {!transient} expectations, scenario
    {!envelope}s, the {!stationary} distribution or the raw
    {!distribution}.

    Every result carries one {!Cert.t} ledger per reported quantity.
    Under [Adaptive] truncation the engine runs the substochastic
    operator of the retained lattice and prices the probability mass
    that provably left it on the certificate's truncation line, instead
    of raising [Transient.Truncated]: for any reward with range
    [rlo, rhi] over the model's clip box the true value lies in
    [value + lost·rlo, value + lost·rhi], where [lost] is the escaped
    mass plus the uniformisation tail.  Under the default [Exact]
    truncation nothing escapes and [lost <= epsilon].

    All sweeps thread the spec's [pool] (bit-identical to sequential
    for any domain count) and [obs]. *)

open Umf_numerics

type truncation =
  | Exact of { max_states : int }
      (** Fail loudly ([Failure]) if the reachable lattice exceeds
          [max_states] or escapes the clip box. *)
  | Adaptive of { max_states : int }
      (** Retain at most [max_states] states (BFS order from the
          initial state) and account every transition out of the
          retained set as certified escaped mass. *)

type scenario = Imprecise | Uncertain of int
(** [Imprecise]: θ may vary in time; bounds by backward sweeps
    (vertex extremisation — exact for rates affine in θ).
    [Uncertain g]: θ constant but unknown; bounds by a g-per-axis
    sample grid of certified forward sweeps. *)

type reward =
  | Coord of int
      (** The i-th density coordinate; certificate range from the
          model's clip box. *)
  | Custom of { f : Vec.t -> float; range : float * float }
      (** An arbitrary density-level reward with an explicit range
          over the model's domain. *)

type spec = {
  model : Model.t;
  scenario : scenario;
  theta : Optim.Box.t option;  (** θ-box override (default: model's). *)
  n : int;  (** Population size N. *)
  horizon : float;
  times : float array option;
      (** Query times (default: 11 points linearly spaced on
          [0, horizon]). *)
  epsilon : float;  (** Uniformisation mass tolerance. *)
  sweep_eps : float option;
      (** Target certified discretisation error for imprecise backward
          sweeps.  [None] (default): a fixed grid of 400 steps over the
          horizon (refined for stability by
          {!Umf_ctmc.Imprecise_ctmc.fixed_series}).  [Some e]:
          Erreygers–De Bock adaptive step selection with a-priori
          budget [e] over the horizon
          ({!Umf_ctmc.Imprecise_ctmc.adaptive_series}). *)
  truncation : truncation;
  pool : Umf_runtime.Runtime.Pool.t option;
  obs : Umf_obs.Obs.t;
}

val spec :
  ?scenario:scenario ->
  ?theta:Optim.Box.t ->
  ?horizon:float ->
  ?times:float array ->
  ?epsilon:float ->
  ?sweep_eps:float ->
  ?truncation:truncation ->
  ?pool:Umf_runtime.Runtime.Pool.t ->
  ?obs:Umf_obs.Obs.t ->
  n:int ->
  Model.t ->
  spec
(** Validated constructor; defaults: [Imprecise] scenario, horizon 10,
    epsilon 1e-12, [Exact {max_states = 2_000_000}].
    @raise Invalid_argument on [n < 1], [horizon <= 0], epsilon outside
    (0, 1), [sweep_eps <= 0], [max_states < 1], an
    [Uncertain] grid < 2, a θ-box dimension mismatch, or non-increasing
    [times]. *)

val space : spec -> Ctmc_of_population.space
(** Enumerate the spec's state space (shared by every entry point; pass
    it back via [?space] to amortise enumeration across calls on the
    same spec). *)

type transient = {
  n : int;
  states : int;  (** Retained lattice size. *)
  theta : Vec.t;  (** The θ the sweep ran at. *)
  times : float array;
  value : float array array;  (** [value.(j).(r)]: time j, reward r. *)
  lower : float array array;
      (** [value + lost·rlo] — certified lower bound on the true
          expectation. *)
  upper : float array array;  (** [value + lost·rhi]. *)
  lost : float array;
      (** Per time point: the probability mass the sweep does not
          carry (escaped from the retained lattice plus the Poisson
          tail) — reward-independent, [0.] at time 0. *)
  certs : Cert.t array array;
      (** [certs.(j).(r)]: the [lower, upper] enclosure of time j,
          reward r as one {!Cert.t} — [lost.(j)] priced over the
          reward range on the truncation line. *)
}

val transient :
  ?theta:Vec.t ->
  ?space:Ctmc_of_population.space ->
  spec ->
  rewards:reward array ->
  transient
(** Certified transient expectations at a fixed θ (default: the θ-box
    midpoint) for every reward and query time, in one uniformisation
    sweep.  Never raises [Transient.Truncated].
    @raise Invalid_argument on an empty reward array, a reward
    coordinate out of range, or a θ dimension mismatch.
    @raise Failure from enumeration/assembly under [Exact] truncation
    as documented in {!Ctmc_of_population}. *)

type envelope = {
  n : int;
  states : int;
  times : float array;
  mean : float array;  (** Certified sweep at the θ-box midpoint. *)
  lower : float array;
  upper : float array;
  lost : float array;
      (** Per time point: the probability mass the midpoint sweep does
          not carry (see {!transient}). *)
  certs : Cert.t array;
      (** Per time point: the [lower, upper] envelope widened outward
          by the backward sweeps' certified discretisation and rounding
          error (imprecise scenario; both lines are 0 on the
          [Uncertain] grid, whose certified forward sweeps carry their
          truncation in [lower]/[upper] already — note the θ sample
          grid itself is an inner approximation of the box). *)
  sweep_steps : int;
      (** Euler steps both imprecise sweeps took together (0 under
          [Uncertain]) — what the adaptive stepper is saving. *)
}

val envelope :
  ?space:Ctmc_of_population.space -> spec -> reward:reward -> envelope
(** Scenario bounds around the finite-N mean trajectory of one reward.
    [Uncertain g]: lower/upper envelope the certified values
    [value + lost·rlo, value + lost·rhi] over the θ sample grid.
    [Imprecise]: backward lower/upper sweeps; on a truncated space the
    escaped mass flows to an absorbing sink whose reward is pinned at
    [rlo] (lower) / [rhi] (upper), keeping both certified outer bounds
    on the true expectation.
    @raise Invalid_argument for [Imprecise] on a model whose rates are
    not affine in θ. *)

type stationary = {
  n : int;
  states : int;
  theta : Vec.t;
  pi : Vec.t;  (** The stationary distribution over the lattice. *)
  values : float array;  (** One expectation per requested reward. *)
  certs : Cert.t array;
      (** Per reward: the value widened by the power-iteration
          tolerance scaled to the reward range, on the optimiser line —
          a residual-level ledger entry, not a rigorous distance
          bound. *)
}

val stationary :
  ?theta:Vec.t ->
  ?space:Ctmc_of_population.space ->
  ?tol:float ->
  ?max_iter:int ->
  spec ->
  rewards:reward array ->
  stationary
(** Stationary distribution at a fixed θ by pooled sparse power
    iteration.  Requires [Exact] truncation — a substochastic truncated
    chain has no stationary distribution.
    @raise Invalid_argument under [Adaptive] truncation.
    @raise Failure if the iteration does not converge. *)

type distribution = {
  n : int;
  states : int;
  theta : Vec.t;
  p : Vec.t;
      (** Sub-distribution over the retained lattice at [horizon] (its
          mass deficit is bounded by [cert]). *)
  cert : Cert.t;
      (** Certified total retained mass: [Σp, Σp + lost] with the lost
          mass on the truncation line. *)
}

val distribution :
  ?theta:Vec.t -> ?space:Ctmc_of_population.space -> spec -> distribution
(** The full transient (sub-)distribution at the spec's horizon. *)
