(** Parametrised differential inclusions ẋ ∈ F(x) = {f(x, θ) : θ ∈ Θ}.

    This is the mean-field limit object of an imprecise population
    process (Theorem 1): the drift [f] is the limit drift of
    Definition 3 and Θ is the parameter box.  All solvers in this
    library ({!Hull}, {!Pontryagin}, {!Birkhoff}, {!Reach},
    {!Uncertain}) operate on this type. *)

open Umf_numerics

type t = {
  dim : int;
  theta : Optim.Box.t;
  drift : Vec.t -> Vec.t -> Vec.t;  (** [drift x theta] = f(x, θ). *)
  jacobian : (Vec.t -> Vec.t -> Mat.t) option;
      (** Optional analytic ∂f/∂x at (x, θ); finite differences are
          used when absent. *)
  plan : Tape.Plan.t option;
      (** The drift's evaluation plan when it is a compiled tape
          ({!of_model}).  Its batch mode is bit-identical to [drift],
          so solvers ({!Pontryagin}, {!Uncertain}, {!Reach}) batch
          whole point grids through it whenever it is present, without
          changing results; {!Hull} takes its face bounds from the
          plan's interval mode and needs it. *)
  jac_plan : Tape.Plan.t option;
      (** The plan of ∂f/∂x that [jacobian] evaluates (d² outputs,
          row-major: output [i·d + j] is ∂f_i/∂x_j).  Only {!of_model}
          sets it; {!Pontryagin}'s costate sweep reads it when [plan]
          is present too. *)
}

val make :
  ?jacobian:(Vec.t -> Vec.t -> Mat.t) ->
  ?plan:Tape.Plan.t ->
  dim:int ->
  theta:Optim.Box.t ->
  (Vec.t -> Vec.t -> Vec.t) ->
  t
(** When [plan] is given, its tape's outputs must compute exactly the
    given drift (bitwise) — the batched solver paths silently assume
    it.  @raise Invalid_argument if the plan's output count differs
    from [dim]. *)

val of_population : ?jacobian:(Vec.t -> Vec.t -> Mat.t) -> Umf_meanfield.Population.t -> t
(** The mean-field differential inclusion of a population model:
    drift and θ-box are taken from the transition classes. *)

val of_model : Umf_meanfield.Model.t -> t
(** The differential inclusion of a symbolic model: compiled drift,
    θ-box, the {e exact} symbolic Jacobian (Pontryagin costates free
    of finite-difference error), and the plans of the drift and of
    that Jacobian. *)

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
    fixed RK4 time grid, so each step evaluates the four stage drifts
    for the whole family via [Tape.Plan.run_batch] (one instruction
    dispatch per chunk of lanes instead of per lane).  Every lane's
    result is bit-identical to its scalar {!integrate_constant} /
    {!integrate_control} twin, for any [par]; when the inclusion has no
    {!plan}, these fall back to exactly that scalar loop.  [par]
    schedules batch chunks ([Runtime.Pool.parallel_for] partially
    applied; sequential when omitted). *)

val integrate_constant_batch :
  t ->
  thetas:Vec.t array ->
  x0:Vec.t ->
  horizon:float ->
  dt:float ->
  Ode.Traj.t array
(** One trajectory per parameter vector, from the shared [x0]: the
    lanes of {!integrate_constant_lanes}, unobserved. *)

val integrate_constant_lanes :
  t ->
  obs:Umf_obs.Obs.t ->
  thetas:Vec.t array ->
  x0s:Vec.t array ->
  horizon:float ->
  dt:float ->
  float array array
(** Lane [l] runs under the constant parameter [thetas.(l)] from its
    own start [x0s.(l)]; the result holds its states on the shared
    grid, flattened: state [s] at [s * dim].  Each lane equals its
    {!integrate_constant} twin bit for bit.  With a {!plan} the lanes
    advance in lockstep, reading the clock ([Obs.checkpoint]) at every
    step and adding lanes × steps to the ["ode.steps"] counter;
    without one each lane is an {!integrate_constant} under [obs].
    @raise Invalid_argument if [thetas] and [x0s] differ in length. *)

val integrate_to_constant_batch :
  ?par:Tape.Plan.runner ->
  t ->
  thetas:Vec.t array ->
  x0:Vec.t ->
  horizon:float ->
  dt:float ->
  Vec.t array
(** Final states only — the batched {!Ode.integrate_to}. *)

val integrate_control_batch :
  ?par:Tape.Plan.runner ->
  t ->
  controls:(float -> Vec.t -> Vec.t) array ->
  x0:Vec.t ->
  horizon:float ->
  dt:float ->
  Vec.t array
(** Final states under one feedback control per lane (each clamped
    into Θ, as {!integrate_control}). *)

val costate_rhs : t -> x:Vec.t -> theta:Vec.t -> p:Vec.t -> Vec.t
(** The Pontryagin costate right-hand side ṗ = −(∂f/∂x)ᵀ p, using the
    analytic Jacobian when available. *)

val hamiltonian : t -> x:Vec.t -> p:Vec.t -> Vec.t -> float
(** H(x, p, θ) = f(x, θ)·p. *)

val argmax_hamiltonian :
  ?opt:[ `Vertices | `Box of int ] -> t -> x:Vec.t -> p:Vec.t -> Vec.t
(** The maximising parameter arg max_θ H(x, p, θ).  [`Vertices]
    (default) enumerates the corners of Θ — exact for drifts affine in
    θ; [`Box k] additionally searches a k-per-axis grid with local
    refinement for non-affine drifts. *)
