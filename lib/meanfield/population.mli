(** Population models defined by transition classes (Sec. III of the
    paper).

    A model describes a family of CTMCs indexed by the population size
    N.  The state is a vector of population {e densities} x ∈ R^d (the
    counting variables divided by N).  Each transition class has:

    - a [change] vector ℓ on the {e count} scale: firing moves the
      counts X ↦ X + ℓ, i.e. the density x ↦ x + ℓ/N;
    - a density-scaled [rate] β(x, θ): at size N the class fires at
      absolute rate N·β(x, θ).

    This scaling makes the family an imprecise population process in
    the sense of Definition 4, with limit drift
    f(x, θ) = Σ_classes β(x, θ)·ℓ. *)

open Umf_numerics

type transition = {
  name : string;
  change : Vec.t;
  rate : Vec.t -> Vec.t -> float;  (** [rate x theta]; must be >= 0. *)
}

type t = private {
  name : string;
  dim : int;
  var_names : string array;
  theta_names : string array;
  theta : Optim.Box.t;
  transitions : transition array;
  rates_plan : Tape.Plan.t option;
      (** all transition rates compiled into one multi-output tape, in
          transition order — lets {!drift}, {!propensities} and the
          CTMC generator assembly evaluate every rate in one dispatch
          (and whole state batches via [Plan.run_batch]) *)
}

val make :
  name:string ->
  var_names:string array ->
  theta_names:string array ->
  theta:Optim.Box.t ->
  ?rates_plan:Tape.Plan.t ->
  transition list ->
  t
(** @raise Invalid_argument on empty variables, a θ-box whose dimension
    differs from [theta_names], a transition whose [change] has the
    wrong dimension, or a [rates_plan] whose output count differs from
    the transition count.  When [rates_plan] is given, its k-th output
    must compute the k-th transition's rate (bitwise — {!Model.make}
    guarantees this by compiling both from the same expressions). *)

val dim : t -> int

val theta_dim : t -> int

val rates_plan : t -> Tape.Plan.t option

val drift : t -> Vec.t -> Vec.t -> Vec.t
(** [drift m x theta] is f(x, θ) = Σ β(x, θ) ℓ (Definition 3 in the
    mean-field limit). *)

val drift_rhs : t -> theta:Vec.t -> Ode.rhs
(** The drift as an autonomous ODE right-hand side for a fixed θ —
    the uncertain-scenario vector field. *)

val controlled_rhs : t -> control:(float -> Vec.t -> Vec.t) -> Ode.rhs
(** Drift under a time/state-dependent deterministic control θ(t, x) —
    one selection of the imprecise differential inclusion. *)

val propensities : t -> n:int -> Vec.t -> Vec.t -> Vec.t
(** [propensities m ~n x theta]: absolute firing rates N·β(x, θ) of
    each class at population size [n] and density state [x].
    @raise Invalid_argument if a rate is negative or NaN. *)
