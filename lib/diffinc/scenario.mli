(** The hierarchy of adversary classes between uncertain and imprecise.

    Sec. II of the paper notes that between the two extremes — θ
    constant (uncertain) and θ an arbitrary adapted process (imprecise)
    — lie intermediate classes such as deterministic time-dependent
    parameters.  This module quantifies the hierarchy on reachability
    envelopes: piecewise-constant deterministic θ with k pieces gives a
    monotone family

    Uncertain = PW 1 ⊆ PW 2 ⊆ … ⊆ Imprecise,

    whose envelopes converge to the imprecise (bang-bang) bound as k
    grows. *)

open Umf_numerics

type t =
  | Uncertain  (** θ constant. *)
  | Piecewise of int
      (** Deterministic θ, constant on k equal sub-intervals of the
          horizon. *)
  | Deterministic of (float -> Umf_numerics.Vec.t)
      (** One known time-inhomogeneous parameter function θ(t) — the
          classical time-varying CTMC case; the envelope degenerates to
          a single trajectory. *)
  | RateLimited of float
      (** Deterministic θ(t) with a slew-rate constraint
          |dθ/dt| <= L per component: an environment that cannot jump
          (temperature, rainfall).  L → 0 recovers Uncertain, L → ∞
          recovers the imprecise bound.  Searched over piecewise-linear
          controls on a 32-knot grid by constrained coordinate ascent —
          like Piecewise, the result is attained by an admissible
          control, hence a certified inner bound. *)
  | Imprecise  (** Arbitrary measurable θ_t (Pontryagin bound). *)

val extremal_coord :
  ?pool:Umf_runtime.Runtime.Pool.t ->
  ?obs:Umf_obs.Obs.t ->
  ?grid:int ->
  ?steps:int ->
  ?dt:float ->
  t ->
  Di.t ->
  x0:Vec.t ->
  coord:int ->
  horizon:float ->
  float * float
(** [(min, max)] of x_coord(horizon) over the scenario's admissible
    parameter functions.  [grid] (default 5) is the per-axis resolution
    used for Uncertain/Piecewise searches; Piecewise uses exhaustive
    search when the grid is small enough and coordinate-ascent sweeps
    otherwise, so its result is a certified {e lower} bound on the true
    envelope width (any returned value is attained by an admissible
    control).  [obs] is threaded into the underlying Uncertain sweep or
    Pontryagin solves; the Piecewise search reads its clock once per
    candidate control, so a deadline clock can cancel it (the
    RateLimited search is not yet instrumented). *)
