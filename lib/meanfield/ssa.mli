(** Exact stochastic simulation of population models at finite size N.

    The Gillespie direct method on the counting variables X = N·x,
    firing each class at its {!Model.propensities} (the model's rates
    plan), with an adapted θ-policy interleaved: the policy chooses θ
    at every transition epoch and may fire its own exponential jump
    clock (redraw policies).  All outputs are on the density scale x = X/N,
    so trajectories converge to the mean-field limit as N grows
    (Theorem 1). *)

open Umf_numerics
module Pool = Umf_runtime.Runtime.Pool

val final :
  ?obs:Umf_obs.Obs.t ->
  Model.t ->
  n:int ->
  x0:Vec.t ->
  policy:Policy.t ->
  tmax:float ->
  Rng.t ->
  Vec.t
(** Density state at [tmax].  [x0] is a density vector; the initial
    counts are [round (N x0)] component-wise.  [obs] receives the
    number of transitions fired as the ["ssa.events"] counter, and its
    clock is read every 4096 events (a deadline cancellation point).
    @raise Failure if a transition drives a count negative (a
    mis-specified model whose rate does not vanish at the
    boundary). *)

val trajectory :
  Model.t ->
  n:int ->
  x0:Vec.t ->
  policy:Policy.t ->
  tmax:float ->
  Rng.t ->
  Ode.Traj.t
(** Full event trajectory (one point per transition) — memory scales
    with the number of events. *)

val sampled :
  ?obs:Umf_obs.Obs.t ->
  Model.t ->
  n:int ->
  x0:Vec.t ->
  policy:Policy.t ->
  times:float array ->
  Rng.t ->
  Vec.t array
(** Density states at the given increasing sample times (piecewise
    constant between events), without storing the full path.  [obs]
    records an ["ssa.sampled"] span and the ["ssa.events"] counter, and
    its clock is read as in {!final}. *)

val time_average :
  Model.t ->
  n:int ->
  x0:Vec.t ->
  policy:Policy.t ->
  tmax:float ->
  warmup:float ->
  reward:(Vec.t -> float) ->
  Rng.t ->
  float
(** Holding-time-weighted average of [reward x] over [[warmup, tmax]]. *)

val replicate :
  ?pool:Pool.t ->
  ?obs:Umf_obs.Obs.t ->
  Model.t ->
  n:int ->
  x0:Vec.t ->
  policy:Policy.t ->
  tmax:float ->
  reps:int ->
  seed:int ->
  Vec.t array
(** [reps] independent replications of {!final}; slot [i] holds the
    final density of the run seeded from the splitmix64 mix of
    [(seed, i)].  The batch is deterministic in its arguments —
    with or without a [pool], and for any pool size, the output is
    bit-identical (the Figure 6 inclusion-fraction workload at
    N = 10⁴).  [obs] records an ["ssa.replicate"] span, a one-tick
    ["ssa.reps"] counter per finished replication (live progress in a
    trace stream) and the total ["ssa.events"]. *)

val count_events :
  Model.t ->
  n:int ->
  x0:Vec.t ->
  policy:Policy.t ->
  tmax:float ->
  Rng.t ->
  int
(** Number of transitions fired (model transitions + policy jumps). *)
