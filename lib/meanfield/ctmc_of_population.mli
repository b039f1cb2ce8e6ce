(** The exact finite-N CTMC of a population model.

    A {!Population.t} at size N is a CTMC on the lattice of count
    vectors X = N·x.  This module enumerates the reachable lattice from
    the (rounded) initial counts and emits the sparse finite-N
    generator from the model's compiled rate tapes — the ground truth
    the paper's mean-field and imprecise bounds approximate, computable
    well past the dense-matrix limit (an N = 1000 SIR instance has
    ≈ 5·10⁵ states and fits easily).

    Truncation is loud by construction: under the default [`Exact]
    policy enumeration stops only at the model's clip box scaled by N,
    an explicit [max_states] budget raises [Failure], and {!generator}
    raises if any positive-rate transition leaves the enumerated space
    — a distribution computed through this engine never silently loses
    mass.  Under [`Adaptive] the budget and the clip box {e truncate}
    the space instead, and every transition out of the retained set is
    accounted as an explicit per-state leak rate
    ({!truncated_generator}), so downstream sweeps return certified
    escaped-mass bounds rather than refusing. *)

open Umf_numerics

type space
(** An enumerated reachable state space at a fixed population size. *)

val state_space :
  ?obs:Umf_obs.Obs.t ->
  ?theta:Optim.Box.t ->
  ?clip:Optim.Box.t ->
  ?max_states:int ->
  ?support_tol:float ->
  ?truncation:[ `Exact | `Adaptive ] ->
  Population.t ->
  n:int ->
  x0:Vec.t ->
  space
(** [state_space pop ~n ~x0] enumerates (breadth-first, deterministic
    order, state 0 = the initial state) every count vector reachable
    from [n·x0] rounded to the lattice by largest remainder — each
    coordinate is floored and the leftover units (against the rounded
    total count) go to the largest fractional parts, so a conserved
    total such as S + I <= N survives the rounding — through
    transitions whose rate is positive at
    some probe θ — the vertices and midpoint of the θ-box ([theta]
    defaults to the population's own box).  Counts are kept inside the
    [clip] box scaled by N (default: the unit density box, i.e. counts
    in [0, N]).

    [max_states] (default 2_000_000) bounds the enumeration.

    [support_tol] (default 1e-12) is the structural-zero threshold: a
    transition counts as supported at a state only when its rate
    exceeds it at some probe θ, and {!generator} / {!imprecise} drop
    edges at or below it.  Boundary rates such as
    [max (0, 1 - s - i)] do not vanish exactly in floating point;
    without the threshold their roundoff residue (~1e-16) would count
    as support and push the enumeration outside the exact lattice.

    [truncation] (default [`Exact]) selects what happens when the
    reachable set outgrows [max_states] or escapes the clip box:
    [`Exact] raises [Failure]; [`Adaptive] stops enumerating there
    instead (BFS order, so the retained set is always the [max_states]
    states closest to the initial state in transition count) and marks
    the space {!truncated} — only {!truncated_generator} and
    {!imprecise} accept such a space.

    @raise Failure if under [`Exact] the reachable space exceeds
    [max_states] or a positive-rate transition leaves the clip box (the
    lattice would be truncated).
    @raise Invalid_argument on dimension mismatches, [n <= 0], a
    non-integral change vector, or [x0] with negative entries. *)

val n_states : space -> int

val population_size : space -> int

val adaptive : space -> bool
(** Whether the space was enumerated under the [`Adaptive] policy. *)

val truncated : space -> bool
(** Whether enumeration actually hit the budget or the clip box — i.e.
    supported transitions out of the retained set exist.  Always
    [false] for an [`Exact] space. *)

val x0_index : space -> int
(** Index of the initial state (always 0). *)

val counts : space -> int -> int array
(** The count vector of a state (not a copy — do not mutate). *)

val density : space -> int -> Vec.t
(** The density vector x = X/N of a state (not a copy). *)

val index : space -> int array -> int option
(** Look a count vector up. *)

val point_mass : space -> Vec.t
(** The initial distribution δ_{x0} over the space. *)

val reward : space -> (Vec.t -> float) -> Vec.t
(** [reward sp f] tabulates a density-level reward x ↦ f(x) as a
    state-indexed vector for {!Umf_ctmc.Transient.expectation_series}. *)

val generator :
  ?pool:Umf_runtime.Runtime.Pool.t ->
  ?obs:Umf_obs.Obs.t ->
  space ->
  Population.t ->
  theta:Vec.t ->
  Umf_ctmc.Generator.t
(** The sparse finite-N generator at a fixed θ: state X fires class c
    at absolute rate N·β(X/N, θ) towards X + ℓ_c.  Rows are assembled
    in parallel over [pool] (index-owned writes — bit-identical to
    sequential) through the model's tape-compiled rates.

    @raise Failure if a positive rate leads outside the enumerated
    space (the probe set used by {!state_space} missed its support —
    enlarge the θ-box probes or the clip box), or if the space is
    {!truncated} (its exits carry probability mass; use
    {!truncated_generator}).
    @raise Invalid_argument if a rate is negative or NaN at θ. *)

val truncated_generator :
  ?pool:Umf_runtime.Runtime.Pool.t ->
  ?obs:Umf_obs.Obs.t ->
  space ->
  Population.t ->
  theta:Vec.t ->
  Umf_ctmc.Generator.t * Vec.t
(** Like {!generator} but accepts a {!truncated} space: the generator
    keeps only edges inside the retained set, and the second component
    is the per-state leak rate — the total rate of supported
    transitions out of the retained set, accumulated in class order
    (index-owned per state, so bit-identical for any pool partition).
    Feed it to {!Umf_ctmc.Sparse.forward}'s [?leak] /
    {!Umf_ctmc.Transient.uniformization_certified} to get transient
    answers with certified escaped-mass bounds.  On a non-truncated
    space the leak vector is all zeros and a missing target still
    raises [Failure] (missed support is a bug, not truncation). *)

val imprecise : ?theta:Optim.Box.t -> space -> Population.t -> Umf_ctmc.Imprecise_ctmc.t
(** The finite-N chain as an imprecise CTMC over the θ-box, for
    {!Umf_ctmc.Imprecise_ctmc.fixed_series}/[adaptive_series] backward
    sweeps.  Each enumerated support edge carries the rate closure
    θ ↦ N·β(X/N, θ).

    On a {!truncated} space the chain gains one extra absorbing sink
    state (index [n_states]) receiving every escaped edge; pin the
    sink's reward at the full-space minimum (lower sweep) or maximum
    (upper sweep) to keep the bounds certified outer bounds.
    @raise Failure as {!generator}, applied at the probe thetas
    (non-truncated spaces only). *)
