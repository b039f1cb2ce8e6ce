(** A susceptible–infected–susceptible (SIS) malware model.

    The network-epidemic motivation from the paper's introduction
    ([2]): nodes are either clean or infected; infection spreads by
    contact at imprecise rate β, arrives externally at rate [a], and
    machines are patched (recover) at rate [delta].  One density
    variable X_I.  The mean-field limit has closed-form equilibria,
    which makes the model a good analytic test case. *)

open Umf_numerics
open Umf_meanfield

type params = {
  a : float;  (** external infection rate *)
  delta : float;  (** patch/recovery rate *)
  beta : Interval.t;  (** imprecise contact infection rate *)
}

val default_params : params
(** a = 0.05, δ = 2, β ∈ [1, 4]. *)

val make : params -> Model.t
(** The symbolic model, f(x, β) = a(1−x)⁺ + βx(1−x)⁺ − δx: affine in
    θ; the clean fraction [max(0, 1 − I)] is a kink and I·(1 − I) is
    quadratic, so the drift is neither smooth nor multilinear. *)

val di : params -> Umf_diffinc.Di.t

val theta_box : params -> Optim.Box.t

val equilibrium : params -> beta:float -> float
(** The unique stable equilibrium of the mean-field ODE for a fixed β
    (closed form via the quadratic formula). *)

val x0 : Vec.t
(** Initial infected fraction 0.2. *)
