(** Imprecise continuous-time Markov chains (Sec. II of the paper).

    A finite-state chain whose transition rates depend on a parameter
    vector θ constrained to a box Θ.  In the {e imprecise} semantics
    θ_t may vary in time (adapted to the process); in the {e uncertain}
    semantics θ is constant but unknown.

    Transient analysis uses the lower/upper expectation operators: the
    tight bounds on E[h(X_T)] over all adapted parameter processes
    solve the imprecise Kolmogorov backward equation

    d/dt g_t(x) = min_{θ ∈ Θ} Σ_y Q^θ(x,y) g_t(y),

    where the minimum is taken independently per state — exact for the
    imprecise semantics.

    {b Vertex extremisation.}  The per-state extremum over Θ is
    evaluated at the vertices of the box only.  This is exact when each
    row of Q^θ is {e affine} in θ (then (Q^θ g)(x) is affine in θ and
    its extremum over a box is attained at a vertex) — the common case
    for the paper's models, and what [Umf_lint] checks via the model's
    [affine_in_theta] flag.  For rates non-affine in θ the vertex sweep
    yields inner bounds only.

    The chain is plain data: each transition carries its rates at the
    vertices of Θ, tabulated once when the chain is built, and every
    backward-sweep step reads those floats. *)

open Umf_numerics

type transition = { src : int; dst : int; rates : float array }
(** One parametrised transition: [rates.(v)] is its rate at the v-th
    vertex of the chain's θ-box, in [Optim.Box.vertices] order. *)

type t

val make : n:int -> theta:Optim.Box.t -> transition list -> t
(** The transitions out of each state keep the order of the list.
    @raise Invalid_argument on out-of-range states, self loops, a
    transition whose rate count differs from the θ-box's vertex count,
    or a negative or NaN vertex rate (the backward sweep's
    convex-combination bound needs rates >= 0 on Θ, which for rates
    affine in θ the vertices decide). *)

val n_states : t -> int

val theta_box : t -> Optim.Box.t

val transitions : t -> transition list
(** Every transition, by source state and, within a state, in the
    order given to {!make}. *)

val max_exit_bound : t -> float
(** An upper bound on every exit rate over Θ: the maximum over the
    θ-vertices (exact for rates monotone in each θ component, e.g.
    affine) — the uniformisation rate of the backward sweeps. *)

type sense = [ `Lower | `Upper ]
(** Which extremum of the backward operator the sweep integrates. *)

type sweep = {
  values : Vec.t array;  (** expectation vector at each requested time *)
  eps : float array;
      (** a-priori Euler discretisation error bound accumulated up to
          each time: Σ δ²λ²·osc(g) over the steps taken so far *)
  rounding : float array;
      (** accumulated floating-point rounding bound at each time *)
  steps : int;  (** total Euler steps across the whole sweep *)
}
(** A certified backward sweep: [values.(j).(x)] bounds
    E[h(X_times(j)) | X_0 = x] to within [eps.(j) + rounding.(j)]
    (from below for [`Lower], above for [`Upper]). *)

val fixed_series :
  ?pool:Umf_runtime.Runtime.Pool.t ->
  ?obs:Umf_obs.Obs.t ->
  ?steps_per_unit:int ->
  sense:sense ->
  t ->
  h:Vec.t ->
  times:float array ->
  sweep
(** Fixed-grid backward sweep over the strictly increasing
    [times >= 0] — one sweep up to the largest horizon with snapshots
    (the equation is autonomous), not one sweep per horizon.
    [steps_per_unit] (default: enough for stability at the maximal exit
    rate, at least 100) controls the discretisation; the grid is
    automatically refined to dt·λ <= 1 (λ = {!max_exit_bound}), the
    condition under which each Euler step is a convex combination of
    current values — so the sweep always stays in the invariant
    envelope [min h, max h] (values are clamped there against float
    rounding) and the a-priori [eps] bound Σ δ²λ²·osc(g) is sound.

    [pool] fans each Euler step out over index-owned state chunks,
    bit-identically to the sequential sweep for any domain count; [obs]
    records a ["ctmc.imprecise_sweep"] span per integrated segment
    (steps, rows touched). *)

val adaptive_series :
  ?pool:Umf_runtime.Runtime.Pool.t ->
  ?obs:Umf_obs.Obs.t ->
  epsilon:float ->
  sense:sense ->
  t ->
  h:Vec.t ->
  times:float array ->
  sweep
(** Adaptive backward sweep in the style of Erreygers–De Bock: the
    caller names a target discretisation error [epsilon] for the whole
    horizon and the step size is chosen per step as
    δ = min(t_rem, 1/λ, (ε/T)/(λ²·osc g)) — spending the budget at a
    constant rate per unit time, so the returned [eps] satisfies
    [eps.(j) <= epsilon · times.(j) / times.(nt-1)] a-priori.  When the
    iterate goes flat (osc g = 0, e.g. after absorption dominates) the
    sweep jumps to the next snapshot for free.
    @raise Invalid_argument if [epsilon <= 0]
    @raise Failure if the budget needs more than 2·10⁷ steps. *)

val absorbing : t -> target:(int -> bool) -> t
(** [absorbing m ~target] is the chain with every transition out of a
    [target] state removed — those states become absorbing.  With the
    indicator of the target set as reward, the backward sweep on the
    absorbed chain bounds hitting probabilities
    P(τ_target <= horizon | X_0 = x). *)
