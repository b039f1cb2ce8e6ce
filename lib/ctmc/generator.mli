(** Sparse generator matrices of finite continuous-time Markov chains.

    States are [0 .. n-1].  A generator stores, per state, the outgoing
    transitions [(target, rate)] with [rate >= 0] and [target <> src];
    the diagonal is implicit ([- exit rate]). *)

type t

val make : n:int -> (int * int * float) list -> t
(** [make ~n transitions] from [(src, dst, rate)] triples.  Transitions
    with rate 0 are dropped; duplicate [(src, dst)] pairs are summed.
    @raise Invalid_argument on out-of-range states, self loops or
    negative rates. *)

val of_rows : (int * float) array array -> t
(** [of_rows rows] builds a generator directly from per-state outgoing
    rows — the O(nnz) constructor used by the finite-N lattice engine,
    skipping {!make}'s per-row hashtable merge.  Row [i] must hold
    [(dst, rate)] pairs sorted strictly ascending by destination with
    [rate > 0] finite and [dst <> i]; the arrays are taken over by the
    generator (do not mutate them afterwards).
    @raise Invalid_argument on unsorted/duplicate destinations,
    out-of-range states, self loops or non-positive rates. *)

val n_states : t -> int

val nnz : t -> int
(** Number of stored transitions (off-diagonal entries). *)

val outgoing : t -> int -> (int * float) array

val exit_rate : t -> int -> float

val max_exit_rate : t -> float

val to_dense : t -> Umf_numerics.Mat.t
(** The full [n x n] generator matrix [Q] (row sums are zero). *)

val apply : t -> Umf_numerics.Vec.t -> Umf_numerics.Vec.t
(** [apply q g] is the vector [Q g] (backward operator: expectations),
    computed sparsely. *)

val apply_forward : t -> Umf_numerics.Vec.t -> Umf_numerics.Vec.t
(** [apply_forward q p] is [Qᵀ p] (forward operator: distributions). *)
