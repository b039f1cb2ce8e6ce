(** Differential hulls (Sec. IV-B, Theorem 4).

    A rectangular over-approximation of the reach set of the
    differential inclusion: two coupled trajectories x̲(t) ≤ x̄(t) such
    that every solution stays coordinate-wise between them.  The hull
    right-hand sides are

    ẋ̲_i ≤ min { f_i(z, θ) : z ∈ [x̲, x̄], z_i = x̲_i, θ ∈ Θ }
    ẋ̄_i ≥ max { f_i(z, θ) : z ∈ [x̲, x̄], z_i = x̄_i, θ ∈ Θ }

    taken from the drift plan's interval mode ({!Tape.Plan.run_interval})
    over each face box × Θ: an enclosure of the face's drift range, so
    each bound lies at or beyond the face extremum and the hull
    over-approximates by construction — up to floating-point rounding,
    since {!Interval} rounds each operation to nearest, not outward.
    A bound is the face extremum itself when each free variable occurs
    once in the drift coordinate; where one occurs twice, interval
    arithmetic's dependency problem makes it looser, but it stays
    sound.  Cheap but — as the paper shows in Figures 4–5 —
    increasingly loose as Θ grows. *)

open Umf_numerics

type traj = {
  times : float array;
  lower : Vec.t array;
  upper : Vec.t array;
}

val bounds :
  ?check:bool ->
  ?clip:Optim.Box.t ->
  ?obs:Umf_obs.Obs.t ->
  Di.t ->
  x0:Vec.t ->
  horizon:float ->
  dt:float ->
  traj
(** Integrate the 2d-dimensional hull system from the degenerate hull
    [x0, x0] with ⌈horizon/dt⌉ RK4 steps, Θ being the inclusion's own
    box.  [check] (default false) raises [Failure] as soon as a hull
    bound becomes NaN or infinite, reporting the offending time and
    step — the runtime sanitizer the {!Certified} path switches on.
    [clip] bounds the hull inside an invariant state box (e.g. the unit
    simplex box for densities) — without it, hulls that blow up take
    the drift far outside the model's domain.
    [obs] records the ["hull.bounds"] span, the ["hull.steps"] /
    ["hull.face_evals"] counters and the ["hull.final_width"] gauge.
    @raise Invalid_argument on a negative horizon, a non-positive dt,
    a step count that is not finite or does not fit an int, an [x0] of
    the wrong dimension, or an inclusion without a compiled drift plan
    ({!Di.of_model} always has one). *)

val lower_at : traj -> float -> Vec.t

val upper_at : traj -> float -> Vec.t

val contains : ?tol:float -> traj -> float -> Vec.t -> bool
(** Whether a state lies inside the hull rectangle at a given time,
    with [tol] slack per coordinate (default 1e-6): extremal solutions
    lie exactly on the hull boundary, where independent integration
    grids disagree by interpolation error. *)

val final_width : traj -> Vec.t
(** x̄(T) − x̲(T): the looseness of the hull at the end of the
    horizon. *)

val final_certs : ?rounding:float -> traj -> Cert.t array
(** The final-time enclosure of each coordinate as a certificate: the
    hull interval [lower, upper] is itself the certified answer (its
    face bounds are interval enclosures), outward-widened by [rounding] (default 0; pass
    [Certified.float_error_bound] for the compiled-drift rounding
    budget) on the rounding line. *)

val pp_traj : Format.formatter -> traj -> unit
(** One-line summary (max final width as the result's value,
    integration steps, horizon, dimension) in the uniform format
    shared with {!Pontryagin.pp_result} and {!Birkhoff.pp_result}. *)

val traj_to_string : traj -> string
