(** The canonical model representation: one symbolic definition,
    everything else derived.

    A model is a population model in the sense of Sec. III of the
    paper: its name, variable/parameter names, the θ-box, a default
    initial density, a state clip box (also the lint certification
    domain), optional adapted policies, and the symbolic transition
    classes — nothing else.  Each class has a [change] vector ℓ on the
    {e count} scale (firing moves the counts X ↦ X + ℓ, i.e. the
    density x ↦ x + ℓ/N) and a density-scaled [rate] β(x, θ): at size N
    it fires at absolute rate N·β(x, θ).  The same rates define the
    size-N chain and the limit drift f(x, θ) = Σ β ℓ (Defs. 3–4).

    From the {!Umf_numerics.Expr} rates, [make] derives every artifact
    the solvers consume:

    - the rates plan: every rate compiled into one multi-output tape,
      the only place a transition rate is evaluated (propensities for
      simulation, lattice enumeration and generator assembly, the
      imprecise chain's vertex rates);
    - the drift and its exact symbolic Jacobian ∂f/∂x, compiled to
      tapes (Pontryagin costates without finite differences);
    - certified interval enclosures of the drift over state × θ boxes
      (the differential hull's face bounds);
    - the structural flags (affine in θ, multilinear) that select the
      Hamiltonian vertex enumeration where it is exact.

    There is no hand-written twin of any of these anywhere: the
    symbolic form is the single source of truth, so the object the
    static analyzer certifies is provably the object every solver
    integrates. *)

open Umf_numerics

type transition = {
  name : string;
  change : Vec.t;  (** count-scale change vector ℓ *)
  rate : Expr.t;  (** density-scaled rate β, must be >= 0 on the domain *)
}

type t

val make :
  name:string ->
  var_names:string array ->
  theta_names:string array ->
  theta:Optim.Box.t ->
  x0:Vec.t ->
  ?clip:Optim.Box.t ->
  ?policies:(string * Policy.t) list ->
  transition list ->
  t
(** [clip] defaults to the unit box [0,1]^dim (densities); it bounds
    hull integration and is the default lint certification domain.
    @raise Invalid_argument if a rate references a variable or
    parameter index out of range, a change vector, [x0] or [clip] has
    the wrong dimension, there are no variables, or the θ-box and
    [theta_names] differ in dimension. *)

(** {1 The declaration} *)

val name : t -> string

val dim : t -> int

val theta_dim : t -> int

val var_names : t -> string array

val theta_names : t -> string array

val theta : t -> Optim.Box.t

val x0 : t -> Vec.t

val clip : t -> Optim.Box.t

val policies : t -> (string * Policy.t) list

val transitions : t -> transition list
(** The symbolic transition classes, as given to {!make} (rates kept
    un-simplified).  Static analyses ({!Umf_lint.Lint}) walk these
    directly. *)

(** {1 Derived artifacts} *)

val rates_plan : t -> Tape.Plan.t
(** Every transition rate β in one compiled plan: output [k] is the
    rate of the k-th transition of {!transitions}.  Batch consumers
    (lattice generator assembly) run it through [Tape.Plan.run_batch]. *)

val propensities : t -> n:int -> Vec.t -> Vec.t -> Vec.t
(** [propensities m ~n x theta]: absolute firing rates N·β(x, θ) of
    each class at population size [n] and density state [x], in
    transition order.
    @raise Invalid_argument if [n <= 0] or a rate is negative or NaN. *)

val drift_exprs : t -> Expr.t array
(** The drift coordinates f_i(x, θ) as simplified expressions. *)

val drift_tape : t -> Tape.t
(** The compiled drift (all coordinates in one CSE'd tape) — exposed
    for instruction-count statistics and benchmarks. *)

val drift_plan : t -> Tape.Plan.t
(** The drift's pre-compiled evaluation plan: scalar, interval and
    batch ([Tape.Plan.run_batch]) modes over shared per-domain scratch.
    Batch consumers ({!Umf_diffinc} sweeps) pull this instead of
    looping {!drift}. *)

val drift : t -> Vec.t -> Vec.t -> Vec.t
(** [drift m x theta] = f(x, θ), from the compiled tape. *)

val drift_into : t -> x:Vec.t -> th:Vec.t -> out:Vec.t -> unit
(** Allocation-free drift evaluation (domain-local workspace). *)

val jac_plan : t -> Tape.Plan.t
(** Exact ∂f/∂x from symbolic differentiation, compiled: d² outputs,
    row-major, output [i·d + j] = ∂f_i/∂x_j. *)

val drift_interval :
  t -> x:Interval.t array -> th:Interval.t array -> Interval.t array
(** Certified enclosure of each drift coordinate over a state box and
    parameter box (interval arithmetic — conservative). *)

val affine_in_theta : t -> bool
(** Whether every drift coordinate is (syntactically) affine in θ, in
    which case vertex enumeration of Θ is exact for Hamiltonian
    maximisation. *)

val multilinear : t -> bool
(** Whether every drift coordinate is multilinear, in which case box
    extrema (hull faces) are attained at vertices. *)
