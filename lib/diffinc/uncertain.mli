(** Analysis of the uncertain scenario: θ constant but unknown in Θ
    (Definition 2 / Corollary 1).

    The reachable set is the union over constant θ of single ODE
    solutions, explored on a parameter grid.  Every θ of the grid is
    one lane of {!Di.constant_lanes}: the lanes advance in lockstep
    through the compiled drift, each bit-identical to its own
    {!Di.integrate_constant}.  With [?pool] the grid is cut into
    64-lane slices ({!Di.map_slices}) that run on the worker domains
    and are folded back in grid order, so the output is the same for
    any number of domains.

    Every entry point also takes [?obs]: each grid sweep is recorded
    as an ["uncertain.sweep"] span carrying a [thetas] metric plus an
    ["uncertain.thetas"] counter, the clock is read at every step (so
    a deadline interrupts a sweep) and lanes × steps are added to
    ["ode.steps"]. *)

open Umf_numerics
module Pool = Umf_runtime.Runtime.Pool

val transient_envelope :
  ?pool:Pool.t ->
  ?obs:Umf_obs.Obs.t ->
  ?dt:float ->
  ?grid:int ->
  Di.t ->
  x0:Vec.t ->
  times:float array ->
  Vec.t array * Vec.t array
(** [(lower, upper)] per sample time: the coordinate-wise min/max of
    x^θ(t) over a [grid]-per-axis factorial grid of constant parameters
    (default 21).  These are the solid curves of Figure 1.  Each
    lane's sample is the state {!Ode.Traj.at} interpolates from its
    trajectory, folded as the lanes advance: only the previous step's
    rows are held, never a whole trajectory.
    @raise Invalid_argument on no sample times, a non-finite one or an
    [x0] of the wrong dimension. *)

val equilibria :
  ?pool:Pool.t ->
  ?obs:Umf_obs.Obs.t ->
  ?dt:float ->
  ?grid:int ->
  ?settle_time:float ->
  Di.t ->
  x0:Vec.t ->
  Vec.t list
(** Long-run states x^θ(∞) for each constant θ on the grid, obtained by
    integrating from [x0] for [settle_time] (default 200) — the red
    equilibrium curve of Figure 3.  For systems with fixed points this
    is the equilibrium manifold sampled along Θ. *)

val extremal_coord :
  ?pool:Pool.t ->
  ?obs:Umf_obs.Obs.t ->
  ?dt:float ->
  ?grid:int ->
  Di.t ->
  x0:Vec.t ->
  coord:int ->
  horizon:float ->
  float * float
(** [(min, max)] of x_coord(horizon) over constant parameters. *)
