(** Power-of-d-choices load balancing with imprecise arrival rates.

    N unit-rate servers; jobs arrive at total rate Nλ with λ imprecise
    in an interval (traffic forecasts are never exact), and each job is
    routed to the shortest of d uniformly sampled queues (d = 1 is
    random routing).  The mean-field state is the tail occupancy vector
    x_k = fraction of servers with at least k jobs, k = 1..K (truncated
    at [k_max]), with the classical drift

    ẋ_k = λ (x_{k-1}^d − x_k^d) − (x_k − x_{k+1}),   x_0 = 1, x_{K+1} = 0.

    Closed-form fixed points for constant λ = ρ < 1 give strong test
    oracles: x_k = ρ^k for d = 1 and x_k = ρ^{(d^k − 1)/(d − 1)} for
    d ≥ 2 (doubly exponential tails — the power of two choices).

    This model exercises the solvers in higher dimension (K ≥ 8) and
    supports robust capacity-planning experiments: which routing policy
    keeps the worst-case backlog lower when λ varies adversarially? *)

open Umf_numerics
open Umf_meanfield

type params = {
  d : int;  (** choices per arrival, >= 1 *)
  k_max : int;  (** queue-length truncation, >= 1 *)
  lambda : Interval.t;  (** imprecise arrival rate per server *)
}

val default_params : params
(** d = 2, k_max = 8, λ ∈ [0.5, 0.9]. *)

val make : params -> Model.t
(** The symbolic model, variables x_1 … x_{k_max}: affine in θ, with
    clamps and tail differences written as [Min]/[Max] kinks and the
    power-of-d choice as [Pow _ d] (not multilinear for d ≥ 2). *)

val di : params -> Umf_diffinc.Di.t

val x0_empty : params -> Vec.t
(** Empty system (all zeros). *)

val fixed_point : params -> lambda:float -> Vec.t
(** The closed-form equilibrium tail for a constant λ < 1. *)

val mean_queue : Vec.t -> float
(** Mean queue length Σ_k x_k of a tail vector. *)

val tail_monotone : Vec.t -> bool
(** The invariant 1 >= x_1 >= x_2 >= … >= 0. *)
