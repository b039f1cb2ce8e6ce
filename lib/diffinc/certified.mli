(** Certified analyses of symbolically-specified models.

    For symbolically-defined models ({!Umf_meanfield.Model}), the
    solvers can replace sampling-based ingredients with sound symbolic
    ones:

    - the solvers run on {!Di.of_model}, with the {e exact} Jacobian
      (Pontryagin costates free of finite-difference error);
    - {!hull_bounds} is {!Hull.bounds}, whose per-face drift ranges
      come from interval arithmetic — a mathematically guaranteed
      over-approximation, behind the lint gate.

    Every entry point first runs the static analyzer
    ({!Umf_lint.Lint}) with the tape tier on ([~tape:true]) unless
    [~lint:false]: models with Error-level findings at either tier —
    certifiably negative rates, malformed transitions (L-codes), or a
    certain division-by-zero in the compiled tape (T002) — are refused
    with {!Rejected}.  The Hamiltonian arg-max strategy is no longer a
    syntactic heuristic: vertex enumeration is selected exactly when
    the linter {e proves} vertex optimality ([vertex_certified] —
    coordinatewise θ-affinity with θ-free kinks, established
    syntactically or from certified-zero second θ-derivatives), which
    also covers multilinear-in-θ drifts the old affinity test
    rejected. *)

open Umf_numerics
module Lint = Umf_lint.Lint

exception Rejected of Lint.report
(** Raised when the pre-solve lint finds Error-level problems; the
    payload is the full diagnostic report. *)

val pontryagin :
  ?steps:int ->
  ?max_iter:int ->
  ?tol:float ->
  ?relax:float ->
  ?domain:Optim.Box.t ->
  ?lint:bool ->
  ?obs:Umf_obs.Obs.t ->
  Umf_meanfield.Model.t ->
  x0:Vec.t ->
  horizon:float ->
  sense:[ `Max | `Min ] ->
  Pontryagin.objective ->
  Pontryagin.result
(** {!Pontryagin.solve} on {!Di.of_model}, gated by the linter ([lint] defaults
    to [true]) and with the Hamiltonian optimiser auto-selected from
    the lint classification; the chosen strategy is recorded in the
    result's [opt] field.  [domain] is passed to the linter (defaults
    to the model's clip box).  Runs with the [~check:true] non-finiteness
    sanitizer on, and threads [obs] into the solver — the one
    observation context convention shared by every certified entry
    point.
    @raise Rejected when the lint report contains errors. *)

val bound_series :
  ?steps:int ->
  ?max_iter:int ->
  ?tol:float ->
  ?relax:float ->
  ?domain:Optim.Box.t ->
  ?lint:bool ->
  ?obs:Umf_obs.Obs.t ->
  Umf_meanfield.Model.t ->
  x0:Vec.t ->
  coord:int ->
  times:float array ->
  (float * float) array
(** {!Pontryagin.bound_series} with the same lint gate, optimiser
    auto-selection, [~check:true] sanitizer and [obs] threading as
    {!pontryagin}.
    @raise Rejected when the lint report contains errors. *)

val hull_bounds :
  ?clip:Optim.Box.t ->
  ?lint:bool ->
  ?obs:Umf_obs.Obs.t ->
  Umf_meanfield.Model.t ->
  x0:Vec.t ->
  horizon:float ->
  dt:float ->
  Hull.traj
(** {!Hull.bounds} on {!Di.of_model} behind the lint gate: runs the
    linter first (over [clip] when given, else the model's clip box)
    and integrates with the [~check:true] NaN/Inf sanitizer on; [obs]
    is threaded into the hull integration.
    @raise Rejected when the lint report contains errors. *)

val recommended_hamiltonian_opt :
  ?domain:Optim.Box.t -> Umf_meanfield.Model.t -> [ `Vertices | `Box of int ]
(** The linter's solver recommendation: [`Vertices] exactly when
    vertex optimality of the Hamiltonian arg max is proven
    ([Lint.vertex_certified]), [`Box 5] otherwise. *)

val static_report :
  ?domain:Optim.Box.t -> Umf_meanfield.Model.t -> Lint.report
(** The full two-tier static-analysis report the gate runs on
    ([Lint.analyze ~tape:true]): L-codes plus tape-level T-codes
    (float-safety, rounding-error bounds, sign facts).  Never raises —
    inspect the report instead of catching {!Rejected}. *)

val drift_cert :
  ?domain:Optim.Box.t -> Umf_meanfield.Model.t -> Cert.t array
(** Per-coordinate certificate of the drift over [domain] (default:
    the model's clip box) × Θ: the interval-arithmetic enclosure as the
    value, the tape tier's a-priori rounding bound on the rounding line
    ([infinity] when not certifiable).  A vacuous entry
    ({!Cert.is_vacuous}) means interval-based bounds on that coordinate
    carry no information — the condition the [umf_lint] C-code tier
    names. *)

val float_error_bound :
  ?domain:Optim.Box.t -> Umf_meanfield.Model.t -> float
(** Certified a-priori bound on the absolute rounding error of one
    compiled drift evaluation, maximised over drift coordinates and
    the whole [domain] × Θ box — the largest rounding line of
    {!drift_cert}; [infinity] when not certifiable. *)

val usable_bounds : ?domain:Optim.Box.t -> Umf_meanfield.Model.t -> bool
(** [true] when no {!drift_cert} coordinate is vacuous — the gate
    certified interval consumers should check before trusting hull
    enclosures. *)
