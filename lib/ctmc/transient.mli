(** Transient distributions of finite CTMCs. *)

type certificate = { escaped : float; tail : float }
(** Certified accounting of probability mass the computed answer does
    not carry.  [escaped] bounds the mass that left a truncated
    (substochastic) state space by the query time — exactly [0.] for an
    exact operator; [tail] is the Poisson-weight deficit of the
    uniformisation series (analytically ≤ epsilon).  For any reward
    with range [rlo, rhi] over the {e full} state space, the true
    expectation lies within
    [computed + (escaped + tail) * rlo, computed + (escaped + tail) * rhi]. *)

val uniformization :
  ?pool:Umf_runtime.Runtime.Pool.t ->
  ?obs:Umf_obs.Obs.t ->
  ?epsilon:float ->
  ?leak:float array ->
  Generator.t ->
  p0:Umf_numerics.Vec.t ->
  t:float ->
  Umf_numerics.Vec.t * certificate
(** [uniformization g ~p0 ~t] is the distribution at time [t] starting
    from [p0], by uniformisation through the sparse forward operator
    {!Sparse.forward} — no dense matrix is formed — together with the
    {!certificate} of the mass it does not carry.

    The truncation point is sized from [(epsilon, λt)]: the sweep stops
    as soon as the accumulated Poisson mass reaches [1 - epsilon]
    (default [epsilon = 1e-12]), and runs at most up to the Chernoff
    tail cap — the smallest [K >= λt] with
    [P(Pois(λt) >= K) <= epsilon] — which certifies the tail
    analytically even when floating-point rounding keeps the measured
    mass just below the target, so the certificate's [tail] is at most
    [epsilon].  The result is the raw partial sum: its total mass is
    reported via [?obs] (gauge ["ctmc.truncation_mass"]) and is
    {e never} renormalised to hide a truncation miss.

    [leak.(i)] is the rate at which state [i] escapes a truncated state
    space (see {!Sparse.forward}); the sweep then runs the
    substochastic operator and certifies the escaped mass per step
    through a fixed block-ordered reduction.  Without [leak] the
    certificate's [escaped] is exactly [0.].  [pool] parallelises the
    sparse steps over destination blocks; results are bit-identical
    for any pool size.

    @raise Invalid_argument if [p0] is not a distribution over the
    chain's states, [t < 0] or [epsilon] is outside [(0, 1)]. *)

val expectation_series :
  ?pool:Umf_runtime.Runtime.Pool.t ->
  ?obs:Umf_obs.Obs.t ->
  ?epsilon:float ->
  ?leak:float array ->
  Generator.t ->
  p0:Umf_numerics.Vec.t ->
  times:float array ->
  Umf_numerics.Vec.t array ->
  float array array * certificate array
(** [expectation_series g ~p0 ~times rewards] is the matrix
    [e.(j).(r) = E[rewards.(r)(X_{times.(j)})]] for strictly increasing
    [times >= 0], with one {!certificate} per time point
    (both lines 0. for a time equal to 0).  Expectations are linear
    in the distribution, so one uniformisation sweep up to the largest
    horizon serves every time point: per Poisson term only the scalar
    products [h · v_k] are taken and reweighted per time in log space.
    This is how the finite-N engine extracts a whole transient
    trajectory for the cost of a single endpoint computation.

    Truncation semantics, [pool], [obs], [epsilon] and [leak] are
    exactly those of {!uniformization} (mass targets are tracked per
    time point). *)
