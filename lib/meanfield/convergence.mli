(** Empirical verification of mean-field convergence (Theorem 1).

    Utilities that measure how far finite-N stochastic trajectories are
    from their deterministic limit, used both in tests and in the
    convergence benchmark. *)

open Umf_numerics

val sup_distance :
  Ode.Traj.t -> Ode.Traj.t -> times:float array -> float
(** Sup over the sample times of the sup-norm distance between the two
    interpolated trajectories. *)

val error_vs_limit :
  Model.t ->
  n:int ->
  theta:Vec.t ->
  x0:Vec.t ->
  times:float array ->
  runs:int ->
  seed:int ->
  float
(** Average (over [runs] independent simulations) sup-distance between
    the size-N process under constant θ and the mean-field ODE solution
    (RK4 on {!Model.drift}, 2000 steps) — should decay like O(1/√N). *)
