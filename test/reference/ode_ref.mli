(** End points of fixed-step integrations: the oracles behind the
    equilibrium and final-state checks of the test suite. *)

open Umf_numerics

val integrate_to :
  ?method_:[ `Euler | `Rk4 ] ->
  ?check:bool ->
  Ode.rhs ->
  t0:float ->
  y0:Vec.t ->
  t1:float ->
  dt:float ->
  Vec.t
(** The final state of {!Ode.integrate} (same steps, same bits). *)

val fixed_point :
  ?tol:float -> ?dt:float -> ?max_time:float -> Ode.rhs -> Vec.t -> Vec.t
(** Integrate an autonomous system in unit bursts until the drift norm
    falls below [tol] (default 1e-9); returns the state reached.
    @raise Failure if no equilibrium is reached before [max_time]
    (default 1e4) — e.g. for systems with limit cycles. *)
