(** Transient distributions of finite CTMCs. *)

exception Truncated of { epsilon : float; mass : float; terms : int }
(** Raised when a caller-supplied [max_terms] cap stops the
    uniformisation sweep before the accumulated Poisson mass reached
    [1 - epsilon] {e and} before the analytic Fox–Glynn/Chernoff cap
    certified the tail: the result would carry more truncation error
    than requested, and is never silently renormalised instead.  Only
    the historical strict entry points raise; the [_certified] variants
    below fold every deficit into an explicit {!certificate}. *)

type certificate = { escaped : float; tail : float }
(** Certified accounting of probability mass the computed answer does
    not carry.  [escaped] bounds the mass that left a truncated
    (substochastic) state space by the query time — exactly [0.] for an
    exact operator; [tail] is the Poisson-weight deficit of the
    uniformisation series (analytically ≤ epsilon unless a user
    [max_terms] cap cut the sweep, in which case the cut lands here
    instead of raising).  For any reward with range [rlo, rhi] over the
    {e full} state space, the true expectation lies within
    [computed + (escaped + tail) * rlo, computed + (escaped + tail) * rhi]. *)

val no_certificate : certificate
(** [{ escaped = 0.; tail = 0. }] — the certificate of an exact answer. *)

val uniformization :
  ?pool:Umf_runtime.Runtime.Pool.t ->
  ?obs:Umf_obs.Obs.t ->
  ?epsilon:float ->
  ?max_terms:int ->
  Generator.t ->
  p0:Umf_numerics.Vec.t ->
  t:float ->
  Umf_numerics.Vec.t
(** [uniformization g ~p0 ~t] is the distribution at time [t] starting
    from [p0], by uniformisation through the sparse forward operator
    {!Sparse.forward} — no dense matrix is formed.

    The truncation point is sized from [(epsilon, λt)]: the sweep stops
    as soon as the accumulated Poisson mass reaches [1 - epsilon]
    (default [epsilon = 1e-12]), and runs at most up to the Chernoff
    tail cap — the smallest [K >= λt] with
    [P(Pois(λt) >= K) <= epsilon] — which certifies the tail
    analytically even when floating-point rounding keeps the measured
    mass just below the target.  The result is the raw partial sum:
    its total mass is reported via [?obs] (gauge
    ["ctmc.truncation_mass"]) and is {e never} renormalised to hide a
    truncation miss.

    [max_terms] bounds the number of retained terms; if it stops the
    sweep before the mass target or the analytic cap is reached,
    {!Truncated} is raised.

    [pool] parallelises the sparse steps over destination blocks,
    bit-identically to the sequential path.

    @raise Invalid_argument if [p0] is not a distribution over the
    chain's states, [t < 0], [epsilon] is outside [(0, 1)] or
    [max_terms < 1].
    @raise Truncated as described above. *)

val uniformization_certified :
  ?pool:Umf_runtime.Runtime.Pool.t ->
  ?obs:Umf_obs.Obs.t ->
  ?epsilon:float ->
  ?max_terms:int ->
  ?leak:float array ->
  Generator.t ->
  p0:Umf_numerics.Vec.t ->
  t:float ->
  Umf_numerics.Vec.t * certificate
(** Like {!uniformization} but never raises {!Truncated}: every source
    of truncation error is returned as an explicit {!certificate}.
    [leak.(i)] is the rate at which state [i] escapes a truncated state
    space (see {!Sparse.forward}); the sweep then runs the
    substochastic operator and certifies the escaped mass per step
    through a fixed block-ordered reduction, so results are
    bit-identical for any pool size.  Without [leak] the returned
    vector is bit-identical to {!uniformization} and the certificate's
    [escaped] is exactly [0.]. *)

val expectation :
  ?pool:Umf_runtime.Runtime.Pool.t ->
  ?obs:Umf_obs.Obs.t ->
  ?epsilon:float ->
  ?max_terms:int ->
  Generator.t ->
  p0:Umf_numerics.Vec.t ->
  t:float ->
  (int -> float) ->
  float
(** E[h(X_t)] under the transient distribution. *)

val expectation_series :
  ?pool:Umf_runtime.Runtime.Pool.t ->
  ?obs:Umf_obs.Obs.t ->
  ?epsilon:float ->
  ?max_terms:int ->
  Generator.t ->
  p0:Umf_numerics.Vec.t ->
  times:float array ->
  Umf_numerics.Vec.t array ->
  float array array
(** [expectation_series g ~p0 ~times rewards] is the matrix
    [e.(j).(r) = E[rewards.(r)(X_{times.(j)})]] for strictly increasing
    [times >= 0].  Expectations are linear in the distribution, so one
    uniformisation sweep up to the largest horizon serves every time
    point: per Poisson term only the scalar products [h · v_k] are
    taken and reweighted per time in log space.  This is how the
    finite-N engine extracts a whole transient trajectory for the cost
    of a single endpoint computation.

    Truncation semantics, [pool], [obs], [epsilon] and [max_terms] are
    exactly those of {!uniformization} (mass targets are tracked per
    time point; {!Truncated} reports the worst mass). *)

val expectation_series_certified :
  ?pool:Umf_runtime.Runtime.Pool.t ->
  ?obs:Umf_obs.Obs.t ->
  ?epsilon:float ->
  ?max_terms:int ->
  ?leak:float array ->
  Generator.t ->
  p0:Umf_numerics.Vec.t ->
  times:float array ->
  Umf_numerics.Vec.t array ->
  float array array * certificate array
(** Like {!expectation_series} but never raises {!Truncated}: returns
    one {!certificate} per time point ([no_certificate] for a time
    equal to 0).  [leak] selects the substochastic truncated operator
    exactly as in {!uniformization_certified}.  Without [leak] the
    expectation matrix is bit-identical to {!expectation_series}. *)
