(** A multi-station bike-sharing network with riding delays — the
    system of Fricker & Gast [22] cited by the paper, under imprecise
    demand.

    K stations share a fleet.  Station i has a fraction 1/K of the N
    racks.  Customers arrive at station i at the imprecise rate θ_i
    (demand depends on weather/events); if a bike is available they
    ride for an Exp(μ) time and return the bike at a station chosen by
    the routing distribution [routing] (blocked returns stay in
    transit and retry).

    Density variables: x_1 … x_K (bikes docked at each station, as a
    fraction of the fleet scale N) and z (bikes in transit); each
    x_i ∈ [0, 1/K], and x_1 + … + x_K + z is conserved — a structural
    invariant the tests exploit.

    The motivating design question: how many bikes (fleet density s)
    keep every station from starving, whatever the demand does?
    Answered with {!Umf_diffinc.Safety} on this model. *)

open Umf_numerics
open Umf_meanfield

type params = {
  stations : int;  (** K >= 2 *)
  mu : float;  (** trip completion rate *)
  demand : Interval.t array;  (** θ_i range per station, length K *)
  routing : float array;  (** return probabilities, length K, sums to 1 *)
  fleet : float;  (** bikes per rack: s ∈ (0, 1) *)
  rebalance : float;
      (** truck redistribution capacity r: bikes flow from station j to
          i at rate r·x_j·(free racks at i)/capacity.  r = 0 disables
          rebalancing — and then a sustained demand surge provably
          starves the hottest station whatever the fleet size, which is
          why real systems rebalance ([22]). *)
}

val default_params : params
(** K = 3, μ = 3, demand θ1 ∈ [0.3, 0.7] (busy downtown),
    θ2, θ3 ∈ [0.1, 0.4], uniform returns, fleet s = 0.6, no
    rebalancing. *)

val with_fleet : params -> float -> params

val with_rebalance : params -> float -> params

val make : params -> Model.t
(** The symbolic model, variables x1 … xK, z: the empty/full guards
    become [Ite] thresholds; conserves Σ x_i + z (every change vector
    sums to 0).  Clipped to {!state_box}. *)

val di : params -> Umf_diffinc.Di.t

val x0 : params -> Vec.t
(** Fleet spread evenly over the stations, nothing in transit. *)

val dim : params -> int

val capacity : params -> float
(** Rack capacity per station on the density scale, 1/K. *)

val state_box : params -> Optim.Box.t
(** The invariant box [0, 1/K]^K × [0, 1] — the hull clip and lint
    certification domain. *)

val total_bikes : Vec.t -> float
(** Σ x_i + z: the conserved fleet density. *)

val min_station : params -> Vec.t -> float
(** Occupancy of the emptiest station. *)

val starvation_constraints : params -> level:float -> Umf_diffinc.Safety.constraint_ list
(** One constraint x_i ≥ level per station: "no station ever runs
    (nearly) dry". *)
