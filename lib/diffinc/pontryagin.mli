(** Reachability bounds by Pontryagin's maximum principle
    (Sec. IV-C of the paper).

    Computes the exact extremal value of a linear functional c·x(T)
    over all solutions of the differential inclusion, by the
    forward–backward fixpoint iteration of equations (7)–(9):

    - forward:  ẋ = f(x, θ(t)) with the current control,
    - backward: ṗ = −(∂f/∂x)ᵀ p with p(T) = c,
    - update:   θ(t) ∈ arg max_θ f(x(t), θ)·p(t),

    repeated until the control and the objective stabilise.  For
    drifts affine in θ the optimal control is bang-bang and the arg max
    is taken over the vertices of Θ. *)

open Umf_numerics
module Pool = Umf_runtime.Runtime.Pool

type objective = [ `Coord of int | `Linear of Vec.t ]
(** Extremise one coordinate x_i(T), or a general linear combination
    c·x(T) (template direction for polyhedral reach sets). *)

type result = {
  value : float;  (** The extremal objective value c·x(T). *)
  times : float array;  (** The uniform time grid. *)
  x : Vec.t array;  (** Optimal state trajectory on the grid. *)
  p : Vec.t array;  (** Costate trajectory. *)
  control : Vec.t array;  (** Optimal (bang-bang) control on the grid. *)
  iterations : int;
  converged : bool;
  opt : [ `Vertices | `Box of int ];
      (** The Hamiltonian arg-max strategy actually used — records
          whether {!Certified.pontryagin}'s auto-selection picked vertex
          enumeration. *)
}

val solve :
  ?steps:int ->
  ?max_iter:int ->
  ?tol:float ->
  ?relax:float ->
  ?opt:[ `Vertices | `Box of int ] ->
  ?check:bool ->
  ?obs:Umf_obs.Obs.t ->
  Di.t ->
  x0:Vec.t ->
  horizon:float ->
  sense:[ `Max | `Min ] ->
  objective ->
  result
(** Defaults: [steps = 400] grid intervals, [max_iter = 200],
    [relax = 0.5] under-relaxation of the control update (full updates
    make the sweep cycle between suboptimal bang-bang patterns).

    Both sweeps run on the inclusion's compiled drift and Jacobian
    plans.  [opt] picks the control update: [`Vertices] (default)
    evaluates the drift at every (interval, Θ-vertex) pair in one
    batched call, exact for drifts affine in θ; [`Box k] runs
    {!Di.argmax_hamiltonian}'s grid-and-descent search per interval.

    [check] (default false) raises [Failure] as soon as the objective
    value goes non-finite during a sweep — the same runtime sanitizer
    convention as {!Hull.bounds} and {!Birkhoff.compute}, switched on
    by the {!Certified} wrappers.  [obs] records the
    ["pontryagin.solve"] span, the ["pontryagin.sweeps"] /
    ["pontryagin.hamiltonian_evals"] / ["pontryagin.nonconverged"]
    counters and the ["pontryagin.switches"] gauge (bang-bang switch
    count of the returned control).

    Near the optimal switch the value enters a small limit cycle whose
    amplitude is the grid-discretisation precision; the solver declares
    convergence when the value oscillation over a 10-sweep window drops
    below [tol] (default 1e-4, relative) and returns the best control
    encountered, snapped to pure bang-bang form when that does not lose
    value.
    @raise Invalid_argument on a bad coordinate or non-positive
    horizon. *)

val bound_series :
  ?pool:Pool.t ->
  ?steps:int ->
  ?max_iter:int ->
  ?tol:float ->
  ?relax:float ->
  ?opt:[ `Vertices | `Box of int ] ->
  ?check:bool ->
  ?obs:Umf_obs.Obs.t ->
  Di.t ->
  x0:Vec.t ->
  coord:int ->
  times:float array ->
  (float * float) array
(** For every horizon T in [times]: [(min, max)] of x_coord(T) over the
    inclusion — the curves of Figure 1.  A zero horizon yields the
    initial value on both sides.  Each horizon is an independent
    min/max solve pair, so with [pool] the series fans out across the
    worker domains with results stored by time index.  [check]/[obs]
    are threaded to every {!solve}; the whole series is additionally
    wrapped in a ["pontryagin.bound_series"] span. *)

val pp_result : Format.formatter -> result -> unit
(** One-line summary: value, iterations, convergence and the
    Hamiltonian arg-max strategy — the uniform result format shared
    with {!Hull.pp_traj} and {!Birkhoff.pp_result}. *)

val result_to_string : result -> string

val switch_times : ?min_dwell:float -> result -> coord:int -> float list
(** Times at which the [coord]-th control component changes value — the
    bang-bang switching instants reported in Figure 2.  Control runs
    shorter than [min_dwell] (default 5 grid cells) are treated as
    discretisation chatter and absorbed into their neighbour. *)
