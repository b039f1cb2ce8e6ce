(** The SIR epidemic model of Sec. V.

    N nodes, each susceptible / infected / recovered.  A susceptible
    node is infected from an external source at rate [a] or by contact
    at rate θ·X_I with θ ∈ [θ_min, θ_max] imprecise; infected nodes
    recover at rate [b]; recovered nodes become susceptible again at
    rate [c].

    The analysis uses the reduced 2-D state (X_S, X_I) with
    X_R = 1 − X_S − X_I substituted (Eq. 11).  Both layouts are
    defined once, symbolically ({!make} / {!make3}); drift, Jacobian,
    simulation model and differential inclusion all derive from that
    single definition. *)

open Umf_numerics
open Umf_meanfield

type params = {
  a : float;  (** external infection rate *)
  b : float;  (** recovery rate *)
  c : float;  (** immunity-loss rate *)
  theta_min : float;
  theta_max : float;
}

val default_params : params
(** The paper's values: a = 0.1, b = 5, c = 1, θ ∈ [1, 10]. *)

val x0 : Vec.t
(** The paper's initial condition (X_S, X_I) = (0.7, 0.3). *)

val x0_3 : Vec.t
(** The 3-variable initial condition (0.7, 0.3, 0). *)

val make : params -> Model.t
(** Reduced 2-variable model (variables S, I; Eq. 11 drift): affine in
    θ, but the reduced immunity-loss rate carries a
    [max(0, 1 − S − I)] kink.  Ships the θ1/θ2 policies of Sec. V-E. *)

val make3 : params -> Model.t
(** Full 3-variable model (S, I, R) — used to check the reduction:
    affine in θ, multilinear, smooth, and mass-conserving (S + I + R
    constant) — the model the static analyzer certifies completely
    clean. *)

val di : params -> Umf_diffinc.Di.t
(** The mean-field differential inclusion with the exact symbolic
    Jacobian. *)

val theta_box : params -> Optim.Box.t

val policy_theta1 : params -> Policy.t
(** Hysteresis policy θ1 of Sec. V-E: plays θ_max and drops to θ_min
    when X_S < 0.5, rises again when X_S > 0.85. *)

val policy_theta2 : ?redraw_rate:float -> params -> Policy.t
(** Jump policy θ2 of Sec. V-E: θ redrawn uniformly in [θ_min, θ_max]
    at rate [redraw_rate]·X_I (default coefficient 5). *)
