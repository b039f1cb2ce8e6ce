(** Sparse uniformised-step kernels.

    A dense uniformised step materialises the n x n DTMC matrix
    P = I + Q/Λ, which caps a finite-N engine at a few thousand
    states.  This module compiles a generator's
    adjacency into a cache-blocked CSR-by-destination operator and
    applies the forward uniformised step p' = Pᵀ p in O(nnz),
    allocation-free and optionally fanned out over a
    {!Umf_runtime.Runtime.Pool}.

    Bit-compatibility contract: for every vector [v] of finite floats,
    [step_into op v ~into] writes exactly the same bits as the dense
    product [Pᵀ v] with P built entry by entry as [1 - exit_i /. Λ] on
    the diagonal and [rate /. Λ] off it (the reference the tests check
    against) — per destination the incoming terms are accumulated in
    ascending source order with the diagonal term inserted at its
    dense position.  The
    destination range is partitioned into cache-sized blocks at
    assembly time; writes are index-owned and the scalar escaped-mass
    reduction combines per-block partials in fixed block order, so the
    pooled path is bit-identical to the sequential path for any pool
    size.

    Substochastic (truncated) operators: [forward ?leak] folds a
    per-state escape rate into the diagonal, making column sums fall
    short of 1 by [leak_j / Λ].  Each [step_into] then returns the
    probability mass that provably left the retained state space during
    that step — the raw material for the certified adaptive-truncation
    mode of {!Transient}. *)

module Pool = Umf_runtime.Runtime.Pool

type t
(** A compiled forward uniformised operator for a fixed rate Λ. *)

val forward : ?rate:float -> ?leak:float array -> Generator.t -> t
(** [forward g] compiles P = I + Q/Λ in transposed (by-destination)
    layout; [rate] defaults to [1.01 * max_i (exit_i + leak_i)] (at
    least 1e-9, so an absorbing chain still has a positive rate).
    [leak.(i)] is an extra exit rate from state [i] to outside the
    retained space; it deepens the diagonal deficit and is reported per
    step by {!step_into}.
    @raise Invalid_argument if [rate] is below the maximal total exit
    rate or [leak] has the wrong dimension. *)

val n_states : t -> int

val nnz : t -> int
(** Stored off-diagonal entries (the generator's transition count). *)

val rate : t -> float
(** The uniformisation rate Λ the operator was compiled for. *)

val n_blocks : t -> int
(** Number of cache blocks the destination range was partitioned into
    at assembly time (each ≤ 4096 rows and, beyond its first row,
    ≤ 16384 stored entries). *)

val substochastic : t -> bool
(** Whether the operator carries a truncation leak (column sums < 1). *)

val step_into :
  ?pool:Pool.t ->
  ?acc:float * Umf_numerics.Vec.t ->
  t ->
  Umf_numerics.Vec.t ->
  into:Umf_numerics.Vec.t ->
  float
(** [step_into op v ~into] writes Pᵀ v into [into] ([into] must not
    alias [v]) and returns the escaped probability mass
    [sum_j leak_j/Λ * v_j] — exactly [0.] for an exact operator.  With
    [acc = (w, r)] it additionally accumulates [r <- r + w * v] in the
    same pass — the fused accumulate-and-advance of the uniformisation
    loop, sharing one parallel section.  @raise Invalid_argument on
    dimension mismatch or aliasing. *)
