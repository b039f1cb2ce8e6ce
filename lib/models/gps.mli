(** The generalised processor sharing (GPS) closed network of Sec. VI.

    N applications of two types (fractions γ1, γ2) send jobs to a
    single machine of capacity C = cN that serves the two job classes
    with GPS weights φ1, φ2.  Job sizes of class i are exponential of
    mean 1/μ_i.  The creation rate λ_i is imprecise in
    [λ_i^min, λ_i^max].

    Two arrival scenarios (Sec. VI-A):
    - {e Poisson}: an application waits Exp(λ'_i) then sends a job;
    - {e MAP}: it first idles Exp(a_i), then activates and sends after
      Exp(λ_i).

    [equivalent_poisson_rate] gives the λ'_i for which both scenarios
    have the same mean time between jobs (1/λ' = 1/a + 1/λ).

    State variables are per-class densities: Poisson (q1, q2) with
    d_i = 1 − q_i; MAP (q1, d1, q2, d2) with e_i = 1 − q_i − d_i. *)

open Umf_numerics
open Umf_meanfield

type params = {
  mu1 : float;
  mu2 : float;
  phi1 : float;
  phi2 : float;
  gamma1 : float;  (** fraction of type-1 applications, N1/N *)
  gamma2 : float;
  capacity : float;  (** service capacity density c (C = cN) *)
  a1 : float;  (** MAP activation rates *)
  a2 : float;
  lambda1 : Interval.t;  (** imprecise creation-rate ranges *)
  lambda2 : Interval.t;
}

val default_params : params
(** The paper's values: μ = (5, 1), φ = (1, 1), λ1 ∈ [1, 7],
    λ2 ∈ [2, 3], a = (1, 2).  The paper does not report C, N1 or N2; we
    take γ1 = γ2 = 1/2 and capacity density c = 0.5, which puts the
    network near critical load and reproduces the qualitative queue
    dynamics of Figure 7. *)

val with_phi1 : params -> float -> params
(** Same parameters with the weight φ1 replaced — for the robust
    tuning study of Sec. VI-C. *)

val equivalent_poisson_rate : a:float -> lambda:float -> float
(** λ' such that 1/λ' = 1/a + 1/λ. *)

val make_poisson : params -> Model.t
(** Poisson-arrival model.  θ = (λ'1, λ'2), the box being the image of
    the λ-ranges under {!equivalent_poisson_rate}.  Affine in θ (the
    GPS service ratio carries no θ), but the ratio itself has a [Div]
    and an [Ite] guard, so the drift is neither multilinear nor
    smooth. *)

val make_map : params -> Model.t
(** MAP-arrival model.  θ = (λ1, λ2). *)

val poisson_di : params -> Umf_diffinc.Di.t

val map_di : params -> Umf_diffinc.Di.t

val x0_poisson : Vec.t
(** (q1, q2) = (0.1, 0.1), the paper's initial state. *)

val x0_map : Vec.t
(** (q1, d1, q2, d2) = (0.1, 0.9, 0.1, 0.9): queues at 0.1, the rest
    of the applications active (e_i = 0). *)

val total_queue : [ `Poisson | `Map ] -> Vec.t -> float
(** Q1 + Q2 for either state layout. *)
