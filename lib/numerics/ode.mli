(** Ordinary differential equation solvers.

    Right-hand sides are functions [f t y] returning dy/dt.  Solvers:
    explicit Euler, classical RK4 (fixed step) and the adaptive
    Dormand–Prince RK45 pair.  Trajectories store every accepted step
    and support linear interpolation. *)

type rhs = float -> Vec.t -> Vec.t

(** A discrete trajectory: strictly increasing times with matching
    states. *)
module Traj : sig
  type t = { times : float array; states : Vec.t array }

  val length : t -> int

  val first : t -> Vec.t

  val last : t -> Vec.t

  val t0 : t -> float

  val t1 : t -> float

  val at : t -> float -> Vec.t
  (** Linear interpolation; clamps outside the time range. *)

  val component : t -> int -> float array
  (** Time series of one coordinate. *)

  val map : (Vec.t -> Vec.t) -> t -> t

  val sample : t -> float array -> Vec.t array
  (** States interpolated at the given times. *)

  val of_arrays : float array -> Vec.t array -> t
  (** @raise Invalid_argument on length mismatch, empty input or
      non-increasing times. *)
end

val euler_step : rhs -> float -> Vec.t -> float -> Vec.t
(** [euler_step f t y dt]. *)

val rk4_step : rhs -> float -> Vec.t -> float -> Vec.t

val integrate :
  ?method_:[ `Euler | `Rk4 ] ->
  ?check:bool ->
  ?obs:Umf_obs.Obs.t ->
  rhs ->
  t0:float ->
  y0:Vec.t ->
  t1:float ->
  dt:float ->
  Traj.t
(** Fixed-step integration from [t0] to [t1] (default RK4).  The final
    step is shortened to land exactly on [t1].  Requires [t1 >= t0] and
    [dt > 0].  With [check] (default off), every right-hand-side
    evaluation and every accepted state is sanitised and a NaN/Inf
    raises [Failure] naming the offending time and step instead of
    silently propagating.  [obs] (default {!Umf_obs.Obs.off}) records
    an ["ode.integrate"] span and the ["ode.steps"] counter; the
    disabled default adds no allocation to the stepping loop. *)

val integrate_adaptive :
  ?err_acc:float ref ->
  ?rtol:float ->
  ?atol:float ->
  ?dt0:float ->
  ?dt_max:float ->
  ?max_steps:int ->
  ?check:bool ->
  ?obs:Umf_obs.Obs.t ->
  rhs ->
  t0:float ->
  y0:Vec.t ->
  t1:float ->
  Traj.t
(** Dormand–Prince RK45 with PI step-size control.  Defaults:
    [rtol = 1e-6], [atol = 1e-9], [max_steps = 1_000_000]; [check] as
    in {!integrate}.  [obs] records an ["ode.rk45"] span with
    accepted/rejected step counts and [dt] min/max gauges.  When
    [err_acc] is given, each accepted step adds its embedded local
    error estimate (in absolute units) to the ref — the tolerance
    accounting behind {!integrate_adaptive_cert}.
    @raise Failure when the step count budget is exhausted or the step
    size underflows. *)

val integrate_adaptive_cert :
  ?rtol:float ->
  ?atol:float ->
  ?dt0:float ->
  ?dt_max:float ->
  ?max_steps:int ->
  ?check:bool ->
  ?obs:Umf_obs.Obs.t ->
  rhs ->
  t0:float ->
  y0:Vec.t ->
  t1:float ->
  Traj.t * Cert.t
(** {!integrate_adaptive} with its tolerance accounting re-expressed
    as a {!Cert.t}: the certificate's value is the symmetric error
    interval [-E, E] and its discretisation line is E, the sum of the
    embedded local error estimates of the accepted steps in absolute
    units.  An {e estimate-level} ledger entry — what the controller
    believed it committed, not an a-priori bound. *)
