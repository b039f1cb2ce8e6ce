(** The single-station bike sharing example of Secs. II–III.

    A station with N racks; X_B ∈ [0, 1] is the fraction of occupied
    racks.  Customers take a bike at imprecise rate θ_a (if one is
    available); bikes are returned at imprecise rate θ_r (if a rack is
    free).  Both the finite-state imprecise CTMC (for exact imprecise
    Kolmogorov bounds) and the population model (for the mean-field
    limit, whose drift is the discontinuous
    f = θ_r·1\{x<1\} − θ_a·1\{x>0\}) are provided. *)

open Umf_numerics
open Umf_meanfield

type params = {
  arrival : Interval.t;  (** θ_a range *)
  return_ : Interval.t;  (** θ_r range *)
}

val default_params : params
(** θ_a ∈ [0.8, 1.4], θ_r ∈ [0.9, 1.2]: a station that can drift
    towards either emptying or filling depending on the environment. *)

val make : params -> Model.t
(** The symbolic model with the single density variable X_B: the
    emptiness/fullness indicator guards become [Ite] thresholds, so
    the drift is affine in θ but only piecewise-smooth. *)

val di : params -> Umf_diffinc.Di.t

val theta_box : params -> Optim.Box.t

val x0 : Vec.t
(** A half-full station. *)

val ictmc : params -> capacity:int -> Umf_ctmc.Imprecise_ctmc.t
(** Finite imprecise CTMC on \{0, …, capacity\} bikes, unscaled as in
    Sec. II: departures at rate θ_a, returns at rate θ_r, each stored
    at the vertices of {!theta_box}. *)

val occupancy_reward : capacity:int -> Vec.t
(** h(k) = k / capacity: the normalised occupancy, as a reward vector
    for {!Umf_ctmc.Imprecise_ctmc.fixed_series}. *)

val empty_indicator : capacity:int -> Vec.t
(** h(k) = 1\{k = 0\}: probability the station is empty. *)
