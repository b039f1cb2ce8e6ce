(** Exact stochastic simulation of finite-state CTMCs. *)

val run :
  Umf_numerics.Rng.t -> Generator.t -> x0:int -> tmax:float -> Path.t
(** Gillespie-style exact simulation from [x0] until [tmax] (or until
    an absorbing state is reached, in which case the path's horizon is
    still [tmax]). *)

val run_imprecise :
  ?rate_bound:float ->
  Umf_numerics.Rng.t ->
  (t:float -> x:int -> Generator.t) ->
  x0:int ->
  tmax:float ->
  Path.t
(** Simulation where the generator may depend on time and state (an
    adapted θ-policy applied to an imprecise chain).

    With [rate_bound] (an upper bound on every exit rate), exact
    Lewis/Ogata thinning is used: correct for arbitrary measurable
    time dependence.  Without it, the generator is frozen between
    jumps — exact only for policies that change at transition
    epochs.
    @raise Invalid_argument if an exit rate exceeds [rate_bound]. *)

val mean_reward :
  Umf_numerics.Rng.t ->
  Generator.t ->
  x0:int ->
  tmax:float ->
  runs:int ->
  (int -> float) ->
  float * float
(** Monte-Carlo estimate (mean, standard error) of the reward of the
    final state over [runs] independent paths. *)
