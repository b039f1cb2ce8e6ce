module Vec = Umf_numerics.Vec
module Mat = Umf_numerics.Mat
module Interval = Umf_numerics.Interval
module Cert = Umf_numerics.Cert
module Ode = Umf_numerics.Ode
module Optim = Umf_numerics.Optim
module Geometry = Umf_numerics.Geometry
module Rng = Umf_numerics.Rng
module Stats = Umf_numerics.Stats
module Expr = Umf_numerics.Expr
module Tape = Umf_numerics.Tape
module Tape_check = Umf_numerics.Tape_check
module Generator = Umf_ctmc.Generator
module Ctmc_path = Umf_ctmc.Path
module Ctmc_simulate = Umf_ctmc.Simulate
module Stationary = Umf_ctmc.Stationary
module Population = Umf_meanfield.Population
module Ctmc_of_population = Umf_meanfield.Ctmc_of_population
module Model = Umf_meanfield.Model
module Policy = Umf_meanfield.Policy
module Ssa = Umf_meanfield.Ssa
module Convergence = Umf_meanfield.Convergence
module Lint = Umf_lint.Lint
module Runtime = Umf_runtime.Runtime
module Obs = Umf_obs.Obs
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
module Sir = Umf_models.Sir
module Gps = Umf_models.Gps
module Bikesharing = Umf_models.Bikesharing
module Sis = Umf_models.Sis
module Cholera = Umf_models.Cholera
module Loadbalance = Umf_models.Loadbalance
module Bikenetwork = Umf_models.Bikenetwork
module Registry = Umf_models.Registry

(* finite-N CTMC: the spec-record front door plus its kernels, under
   one namespace *)
module Ctmc = struct
  module Engine = Umf_meanfield.Engine
  module Generator = Umf_ctmc.Generator
  module Sparse = Umf_ctmc.Sparse
  module Transient = Umf_ctmc.Transient
  module Stationary = Umf_ctmc.Stationary
  module Imprecise = Umf_ctmc.Imprecise_ctmc
end

(* High-level end-to-end analyses: its own compilation unit (see
   analysis.mli) so the serving layers can consume the spec API without
   the umbrella module; re-exported here unchanged. *)
module Analysis = Analysis

(* the NDJSON wire protocol of the umf_serve daemon *)
module Codec = Codec
