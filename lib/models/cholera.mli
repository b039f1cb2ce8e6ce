(** A cholera epidemic with an environmental water reservoir (the
    paper's introductory motivation [3]: rainfall makes the
    water-borne infection rate vary unpredictably in time).

    Variables: S (susceptible fraction), I (infected fraction) and W
    (normalised bacterial concentration of the reservoir); recovered
    R = 1 − S − I is implicit.  Infected individuals shed bacteria into
    the reservoir (rate ξ I); bacteria decay (rate δ W); susceptibles
    are infected through the water at the imprecise rate θ S W with
    θ ∈ [θ_min, θ_max] driven by rainfall, plus a small direct rate a.

    The model is specified {e symbolically} ({!make}), so exact
    Jacobians and certified interval hull bounds are available; it is
    3-dimensional, exercising every solver beyond the planar case
    (no Birkhoff centre, which is 2-D only). *)

open Umf_numerics
open Umf_meanfield

type params = {
  a : float;  (** direct (non-water) infection rate *)
  gamma : float;  (** recovery rate *)
  rho : float;  (** immunity-loss rate *)
  xi : float;  (** shedding rate into the reservoir *)
  delta : float;  (** bacterial decay rate *)
  theta : Interval.t;  (** imprecise water-borne infection rate *)
}

val default_params : params
(** a = 0.01, γ = 2, ρ = 0.2, ξ = 1, δ = 1, θ ∈ [0.5, 4]. *)

val make : params -> Model.t
(** Clipped to {!state_clip} (the declared invariant box, which also
    serves as the lint certification domain). *)

val di : params -> Umf_diffinc.Di.t
(** With the exact symbolic Jacobian. *)

val x0 : Vec.t
(** (S, I, W) = (0.9, 0.1, 0). *)

val state_clip : Optim.Box.t
(** Invariant box [0,1]² × [0,2] for hull clipping (W's drift is
    negative above ξ/δ = 1). *)
