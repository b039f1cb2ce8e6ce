(** Parametrised differential inclusions ẋ ∈ F(x) = {f(x, θ) : θ ∈ Θ}.

    This is the mean-field limit object of an imprecise population
    process (Theorem 1): the drift [f] is the limit drift of
    Definition 3 and Θ is the parameter box.  Every inclusion is
    compiled from a symbolic {!Umf_meanfield.Model.t} by {!of_model},
    and all solvers in this library ({!Hull}, {!Pontryagin},
    {!Birkhoff}, {!Reach}, {!Uncertain}) operate on this type. *)

open Umf_numerics

type t = {
  dim : int;
  theta : Optim.Box.t;
  drift : Vec.t -> Vec.t -> Vec.t;  (** [drift x theta] = f(x, θ). *)
  plan : Tape.Plan.t;
      (** The drift's evaluation plan.  Its batch mode is bit-identical
          to [drift], so the solvers batch whole families of points and
          lanes through it; {!Hull} takes its face bounds from its
          interval mode. *)
  jac_plan : Tape.Plan.t;
      (** The plan of the exact ∂f/∂x (d² outputs, row-major: output
          [i·d + j] is ∂f_i/∂x_j), which {!Pontryagin}'s costate sweep
          evaluates. *)
}

val of_model : Umf_meanfield.Model.t -> t
(** The differential inclusion of a symbolic model: compiled drift,
    θ-box, and the plans of the drift and of its {e exact} symbolic
    Jacobian.  A fixture or a bespoke dynamics is a small
    {!Umf_meanfield.Model.make} model. *)

val integrate_constant :
  ?obs:Umf_obs.Obs.t ->
  t ->
  theta:Vec.t ->
  x0:Vec.t ->
  horizon:float ->
  dt:float ->
  Ode.Traj.t
(** One selection: the solution under a constant parameter.  [?obs]
    is forwarded to {!Ode.integrate}. *)

val integrate_control :
  ?obs:Umf_obs.Obs.t ->
  t ->
  control:(float -> Vec.t -> Vec.t) ->
  x0:Vec.t ->
  horizon:float ->
  dt:float ->
  Ode.Traj.t
(** The solution under a deterministic feedback control θ(t, x)
    (clamped into Θ).  [?obs] is forwarded to {!Ode.integrate}. *)

(** {1 Lockstep batched integration}

    Families of selections integrated together: all lanes share the
    fixed RK4 time grid of {!Ode.integrate}, so each step evaluates the
    four stage drifts for the whole family via [Tape.Plan.run_batch]
    (one instruction dispatch per chunk of lanes instead of per lane).
    Every lane is bit-identical to its scalar {!integrate_constant} /
    {!integrate_control} twin. *)

val constant_lanes :
  t ->
  obs:Umf_obs.Obs.t ->
  thetas:Vec.t array ->
  x0s:Vec.t array ->
  horizon:float ->
  dt:float ->
  (float -> Mat.t -> unit) ->
  Mat.t
(** [constant_lanes di ~obs ~thetas ~x0s ~horizon ~dt record]: lane
    [l] runs under the constant parameter [thetas.(l)] from its own
    start [x0s.(l)].  [record t ys] sees every grid time, 0 included,
    with the lanes' states as the rows of [ys]; the next step
    overwrites them, so a caller keeps what it needs.  Returns the
    final rows.  Reads the clock ([Obs.checkpoint]) at every grid time
    and adds lanes × steps to the ["ode.steps"] counter.
    @raise Invalid_argument if there are no lanes or [thetas] and [x0s]
    differ in length. *)

val integrate_constant_lanes :
  t ->
  obs:Umf_obs.Obs.t ->
  thetas:Vec.t array ->
  x0s:Vec.t array ->
  horizon:float ->
  dt:float ->
  float array array
(** The lanes of {!constant_lanes}, recorded whole: lane [l] holds its
    states on the shared grid, flattened (state [s] at [s * dim]). *)

val integrate_control_batch :
  t ->
  controls:(float -> Vec.t -> Vec.t) array ->
  x0:Vec.t ->
  horizon:float ->
  dt:float ->
  Vec.t array
(** Final states under one feedback control per lane (each clamped
    into Θ, as {!integrate_control}). *)

val map_slices :
  Umf_runtime.Runtime.Pool.t option ->
  stage:string ->
  ('a array -> 'b) ->
  'a array ->
  'b array
(** [map_slices pool ~stage f lanes]: [[| f lanes |]] without a pool;
    with one, [f] maps consecutive slices of 64 lanes on the worker
    domains (one section labelled [stage]), results in lane order.  The
    lockstep lanes are independent, so any slicing gives each lane the
    same bits. *)

val hamiltonian : t -> x:Vec.t -> p:Vec.t -> Vec.t -> float
(** H(x, p, θ) = f(x, θ)·p. *)

val argmax_hamiltonian :
  ?opt:[ `Vertices | `Box of int ] -> t -> x:Vec.t -> p:Vec.t -> Vec.t
(** The maximising parameter arg max_θ H(x, p, θ).  [`Vertices]
    (default) enumerates the corners of Θ — exact for drifts affine in
    θ; [`Box k] additionally searches a k-per-axis grid with local
    refinement for non-affine drifts. *)
