(** Mean-field analysis of uncertain and imprecise stochastic models.

    Umbrella interface of the library reproducing Bortolussi & Gast,
    {e Mean Field Approximation of Uncertain Stochastic Models}
    (DSN 2016).  Model a system of N interacting agents as a
    {!Population} of transition classes with parameters ranging in a
    box Θ, then analyse:

    - the {e uncertain} scenario (θ constant but unknown) with
      {!Uncertain} sweeps, and
    - the {e imprecise} scenario (θ_t varying arbitrarily in Θ) through
      its mean-field differential-inclusion limit, with {!Hull} (cheap
      rectangular bounds), {!Pontryagin} (tight extremal bounds) and
      {!Birkhoff} (steady-state regions);

    and validate against finite-N stochastic simulation ({!Ssa}) or
    the exact finite-N CTMC engine ({!Ctmc.Engine}).

    The {!Analysis} module bundles the common end-to-end workflows. *)

(* numerics substrate *)
module Vec = Umf_numerics.Vec
module Mat = Umf_numerics.Mat
module Interval = Umf_numerics.Interval

(** The unified error ledger: every solver reports its certified
    enclosure plus an itemised budget (discretisation, truncation,
    rounding, optimiser) through this one type. *)
module Cert = Umf_numerics.Cert
module Ode = Umf_numerics.Ode
module Optim = Umf_numerics.Optim
module Geometry = Umf_numerics.Geometry
module Rng = Umf_numerics.Rng
module Stats = Umf_numerics.Stats
module Expr = Umf_numerics.Expr
module Tape = Umf_numerics.Tape
module Tape_check = Umf_numerics.Tape_check

(* Markov chain substrate *)
module Generator = Umf_ctmc.Generator
module Ctmc_path = Umf_ctmc.Path
module Ctmc_simulate = Umf_ctmc.Simulate
module Stationary = Umf_ctmc.Stationary

(* population models and their simulation *)
module Population = Umf_meanfield.Population
module Ctmc_of_population = Umf_meanfield.Ctmc_of_population
module Model = Umf_meanfield.Model
module Policy = Umf_meanfield.Policy
module Ssa = Umf_meanfield.Ssa
module Convergence = Umf_meanfield.Convergence

(** The finite-N CTMC engine: {!Ctmc.Engine} is the one spec-record
    front door (transient expectations, scenario envelopes, stationary
    distributions — all with certified escaped-mass accounting under
    adaptive truncation); the submodules next to it are its kernels for
    callers that build generators by hand. *)
module Ctmc : sig
  module Engine = Umf_meanfield.Engine
  module Generator = Umf_ctmc.Generator
  module Sparse = Umf_ctmc.Sparse
  module Transient = Umf_ctmc.Transient
  module Stationary = Umf_ctmc.Stationary
  module Imprecise = Umf_ctmc.Imprecise_ctmc
end

(* static model analysis *)
module Lint = Umf_lint.Lint

(* multicore execution engine *)
module Runtime = Umf_runtime.Runtime

(* tracing & metrics (zero-cost when off) *)
module Obs = Umf_obs.Obs

(* differential-inclusion mean-field limits *)
module Di = Umf_diffinc.Di
module Hull = Umf_diffinc.Hull
module Pontryagin = Umf_diffinc.Pontryagin
module Uncertain = Umf_diffinc.Uncertain
module Scenario = Umf_diffinc.Scenario
module Reach = Umf_diffinc.Reach
module Template = Umf_diffinc.Template
module Birkhoff = Umf_diffinc.Birkhoff
module Certified = Umf_diffinc.Certified
module Safety = Umf_diffinc.Safety

(* the paper's case studies *)
module Sir = Umf_models.Sir
module Gps = Umf_models.Gps
module Bikesharing = Umf_models.Bikesharing
module Sis = Umf_models.Sis
module Cholera = Umf_models.Cholera
module Loadbalance = Umf_models.Loadbalance
module Bikenetwork = Umf_models.Bikenetwork
module Registry = Umf_models.Registry

(** High-level end-to-end analyses.

    Every entry point consumes an {!Analysis.spec}: one record naming
    the model, the scenario, the θ-box override, the horizon, the
    solver tolerances and an optional {!Runtime.Pool} for multicore
    execution.  Build one with {!Analysis.spec} and reuse it across
    analyses; results come back as named records.  (Its own
    compilation unit so the serving layers can consume the spec API
    directly.) *)
module Analysis = Analysis

(** The op layer both binaries call, over {!Analysis.spec}: the
    [umf_serve] wire protocol (request parsing, content fingerprints
    for the result cache, op evaluation, responses) and the text
    rendering of [umf_cli]. *)
module Codec = Codec
