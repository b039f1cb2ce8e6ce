(** Discrete-time Markov chains with interval transition probabilities
    (Škulj [10], the formalism the paper's imprecise CTMCs build on).

    Each row i carries probability intervals [l_ij, u_ij]; the credal
    set of row i is every probability vector p with l_i <= p <= u_i.
    The tight lower expectation operator

    (T̲ g)(i) = min { Σ_j p_j g(j) : l_i <= p <= u_i, Σ_j p_j = 1 }

    is computed exactly by the greedy fractile algorithm (fill the
    smallest-g states up to their upper bounds first). *)

open Umf_numerics
open Umf_ctmc

type t

val make : Interval.t array array -> t
(** [make rows] with [rows.(i).(j)] the probability interval of the
    transition i → j.
    @raise Invalid_argument unless the matrix is square, every interval
    is inside [0, 1], and each row is {e coherent}:
    Σ_j l_ij <= 1 <= Σ_j u_ij (so the credal set is non-empty). *)

val n_states : t -> int

val lower_matvec : t -> Vec.t -> Vec.t
(** [lower_matvec m g] is T̲ g. *)

val upper_matvec : t -> Vec.t -> Vec.t
(** T̄ g = −T̲(−g) (conjugacy). *)

val lower_expectation : t -> h:Vec.t -> steps:int -> Vec.t
(** k-step lower expectation E̲[h(X_k) | X_0 = ·] = T̲^k h. *)

val upper_expectation : t -> h:Vec.t -> steps:int -> Vec.t

val of_imprecise_ctmc : Imprecise_ctmc.t -> dt:float -> t
(** Euler/uniformisation discretisation of an imprecise CTMC: entry
    (i, j) gets the interval [dt·min_θ q_ij(θ), dt·max_θ q_ij(θ)]
    (rates extremised over the θ-box vertices — exact for rates
    monotone in each θ component) and the diagonal the matching
    self-loop interval.  The per-entry relaxation forgets correlations
    induced by a shared θ, so the resulting DTMC bounds {e enclose} the
    CTMC bounds: a sound, slightly wider cross-check.
    @raise Invalid_argument if [dt] exceeds 1 / max exit rate. *)
