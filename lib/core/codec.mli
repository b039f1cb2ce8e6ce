(** NDJSON request/response codec over {!Analysis.spec}: the one op
    layer both front ends call.

    [umf_serve] parses request lines, fingerprints, evaluates and
    renders JSON responses through this module; [umf_cli] builds the
    same {!request} from its flags, runs {!spec_of_request} and one
    {!eval}, and prints the answer with {!render}.  Everything about
    an analysis that is independent of scheduling and transport lives
    here, so it can be tested without a running server.

    {b Request schema} (fields beyond these are ignored):
    {v
{"op":"bounds","model":"sir","coord":1,
 "scenario":{"uncertain":5},          // "imprecise" (default),
                                      // {"uncertain":GRID}, {"piecewise":K}
 "theta":[[0.5,1.5],[0.3,0.7]],       // default: the model's box
 "horizon":10,"steps":400,"dt":0.01,"tol":1e-4,   // spec defaults
 "x0":[0.9,0.1],"times":[0,1,2],      // op-specific, optional
 "id":42,                             // echoed verbatim
 "deadline_ms":5000,                  // optional per-request deadline
 "cache":true}                        // default true
    v}
    Analysis ops, one example each (op fields; defaults in brackets):
    {v
{"op":"bounds","model":"sir","coord":1,"scenario":{"piecewise":2}}
    coord [0], x0?, times? [11 points on 0..horizon]
{"op":"hull","model":"sir3","horizon":2}
    x0?; clipped to the model's state box
{"op":"steady","model":"sir","x_start":[0.7,0.3]}
    x_start? [all 0.5]; 2-variable models only
{"op":"first_passage","model":"sir","n":50,"coord":1,"level":0.05,
 "direction":"below"}
    n, coord, level, direction ["above"], epsilon? [1e-3],
    max_states? [20000], times? [101 points]
{"op":"simulate","model":"sir","n":1000,"points":50,"policy":"theta1"}
    n, points [50], policy ["mid"; also "lo", "hi" or a model policy],
    reps [1; > 1 reports final states and ignores points], seed [1]
{"op":"ctmc","mode":"envelope","model":"sir","n":100,"coord":1,
 "scenario":{"uncertain":3},"epsilon":1e-3}
    mode ("transient" | "stationary" | "envelope"), n,
    coord [0] (envelope), theta_point ["mid"; "lo", "hi"] (transient,
    stationary), epsilon? (split evenly between mass tolerance and
    sweep budget; default 1e-12 mass, fixed grid), truncation
    ["exact"; "adaptive"], max_states [2000000], times? (transient,
    envelope)
    v}
    plus the service ops ["ping"], ["metrics"], ["models"] which take
    no model.  A [{"piecewise":K}] scenario takes 1 <= K <= 64 and a
    [{"uncertain":G}] grid at most 4096 points over Θ; op
    fields an op does not use leave its {!fingerprint} unchanged.

    [umf_cli] subcommands and the request each one sends:
    {v
bounds --scenario S        bounds, scenario S (uncertain = {"uncertain":5})
hull --dt DT               hull, "dt":DT
steady                     steady, "x_start": the model's x0
simulate                   simulate
ctmc transient|stationary  ctmc, "mode":"transient"|"stationary"
ctmc bounds --grid G       ctmc, "mode":"envelope", {"uncertain":G} unless
                           --scenario imprecise
ctmc first-passage         first_passage, "direction" from --above/--below
    v}

    {b Response schema}: [{"id":…,"ok":true,"cached":…,"wall_ms":…,
    "queue_wait_ms":…,"result":{…},"cert":{…}}] on success, and
    [{"id":…,"ok":false,"error":{"kind":…,"message":…},"cert":{…}?}]
    on failure.  Every successful analysis response carries its
    {!Umf_numerics.Cert} ledger; deadline errors carry the partial
    ledger observed before expiry.  Non-finite numbers render as JSON
    [null] (the {!Umf_obs.Obs.Json} printer's convention). *)

exception Bad_request of string
(** Raised by parsers, {!spec_of_request} and {!eval} on malformed or
    semantically invalid requests (unknown model, coord out of range,
    non-positive horizon, an over-budget exact lattice, …).  The
    daemon maps it to a ["bad_request"] error response. *)

type theta_point = [ `Mid | `Lo | `Hi ]  (** A point of the effective θ-box. *)

val theta_points : (string * theta_point) list  (** Wire names. *)

(** An analysis operation with its op-specific parameters ([None]s
    take the {!Analysis} defaults).  An op holds only what its answer
    depends on, so two requests computing the same answer carry equal
    ops and share a {!fingerprint}. *)
type op =
  | Bounds of {
      x0 : Umf_numerics.Vec.t option;
      coord : int;
      times : float array option;
    }
  | Hull_bounds of { x0 : Umf_numerics.Vec.t option }
  | Steady of { x_start : Umf_numerics.Vec.t option }
  | First_passage of {
      n : int;
      coord : int;
      level : float;
      direction : [ `Above | `Below ];
          (** Target set: states with [x.(coord) >= level] ([`Above])
              or [<= level] ([`Below]). *)
      epsilon : float option;
      max_states : int option;
      times : float array option;
    }
  | Simulate of {
      n : int;
      policy : string;  (** ["mid"], ["lo"], ["hi"] or a model policy. *)
      seed : int;
      sample : [ `Trajectory of int | `Finals of int ];
          (** One run sampled at [points] times on (0, horizon], or the
              final states of [reps] seeded runs. *)
    }
  | Ctmc of {
      mode :
        [ `Transient of theta_point
        | `Stationary of theta_point
        | `Envelope of int ];
          (** Every variable's expectation at one θ point, or the
              envelope of variable [coord]'s over the θ-box. *)
      n : int;
      epsilon : float option;
      truncation : [ `Exact | `Adaptive ];
      max_states : int;
      times : float array option;  (** Unused by stationary. *)
    }

type request = {
  id : Umf_obs.Obs.Json.t;  (** Echoed verbatim; [Null] when absent. *)
  model : string;  (** {!Umf_models.Registry} name. *)
  scenario : Analysis.scenario;
  theta : Umf_numerics.Optim.Box.t option;
  horizon : float option;
  steps : int option;
  dt : float option;
  tol : float option;
  op : op;
  deadline_ms : float option;
      (** Per-request deadline; expiry yields a structured error, not
          a dropped connection. *)
  cache : bool;  (** Whether the exact-match result cache may serve it. *)
}

(** One parsed request line: an analysis request or a service op (the
    payload is the echoed request id). *)
type parsed =
  | Analyze of request
  | Ping of Umf_obs.Obs.Json.t
  | Metrics of Umf_obs.Obs.Json.t
  | Models of Umf_obs.Obs.Json.t

val op_name : op -> string
(** The wire name ("bounds", "hull", …) — the per-endpoint metrics
    key. *)

val of_line : string -> (parsed, Umf_obs.Obs.Json.t * string) result
(** Parse one NDJSON request line.  [Error (id, msg)] carries the
    request id when one was readable, so even a malformed request gets
    a correlatable error response. *)

val spec_of_request :
  ?resolve:(string -> (Umf_meanfield.Model.t, [ `Msg of string ]) result) ->
  ?pool:Umf_runtime.Runtime.Pool.t ->
  ?obs:Umf_obs.Obs.t ->
  request ->
  Analysis.spec
(** Resolve the model and build the effective spec (defaults applied).
    [resolve] (default {!Umf_models.Registry.find}) is how the daemon
    injects its compiled-model cache; [pool] and [obs] are the
    daemon's, not the wire's.
    @raise Bad_request on unknown models or invalid spec parameters. *)

val fingerprint : Analysis.spec -> op -> string
(** Content hash (hex) of everything the numeric answer depends on:
    the model's full content (transitions, rates, boxes — not just its
    name), the effective scenario/θ-box/horizon/steps/dt/tol, and the
    op with its parameters.  Excludes id, deadline, cache flag, pool
    and obs, none of which may change an output bit — so equal
    fingerprints may share a cached result bitwise. *)

val eval : Analysis.spec -> op -> Umf_obs.Obs.Json.t * Umf_numerics.Cert.t
(** Run one op under a spec: the result payload and its certificate
    (the result's own ledger where the analysis produces one; a
    synthesised one — per-coordinate {!Umf_numerics.Cert.join} for
    hulls and finite-N expectations, optimiser-tolerance widening for
    steady-state areas, a vacuous one for simulations, which certify
    nothing — otherwise).  Payloads carry what the text rendering prints, never
    lattice-sized vectors.  @raise Bad_request on op/spec mismatches
    (coord or x0 dimension out of range) and on solver [Failure]s of
    the finite-N ops (an exact lattice over [max_states]). *)

val render :
  Analysis.spec ->
  op ->
  Umf_obs.Obs.Json.t ->
  Umf_obs.Obs.Json.t ->
  string * string
(** [render spec op result cert] is the text [umf_cli] prints for an
    {!eval} answer given as JSON ([cert] in the {!json_of_cert} form):
    the stdout table, and the ["# cert"] ledger lines printed to stderr
    under [--metrics].  A served [result]/[cert] pair renders to the
    same bytes as the in-process one. *)

val json_of_cert : Umf_numerics.Cert.t -> Umf_obs.Obs.Json.t
(** [{"lo":…,"hi":…,"vacuous":…,"budget":{…}}] with all four budget
    lines always present. *)

val ok_response :
  id:Umf_obs.Obs.Json.t ->
  cached:bool ->
  wall_ms:float ->
  queue_wait_ms:float ->
  result:Umf_obs.Obs.Json.t ->
  cert:Umf_obs.Obs.Json.t ->
  string
(** Render a success line (no trailing newline).  [result]/[cert] are
    pre-rendered JSON values so a cache hit re-emits the {e identical}
    payload bytes; timings are rounded to microsecond precision. *)

val error_response :
  ?cert:Umf_obs.Obs.Json.t ->
  id:Umf_obs.Obs.Json.t ->
  kind:string ->
  string ->
  string
(** Render an error line.  [kind] is one of ["bad_request"],
    ["deadline_exceeded"], ["overloaded"], ["internal"]; [cert]
    attaches a (possibly partial or vacuous) ledger when one was
    recovered. *)
