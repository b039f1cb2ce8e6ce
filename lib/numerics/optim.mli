(** Scalar and box-constrained optimisation.

    A golden-section minimiser for robust-tuning sweeps, and box
    minimisers/maximisers used by Pontryagin's arg-max when the drift
    is not affine in θ. *)

val golden_section_min :
  ?tol:float -> ?max_iter:int -> (float -> float) -> float -> float -> float * float
(** [golden_section_min f a b] minimises a unimodal [f] on [a, b];
    returns [(x, f x)]. *)

(** Axis-aligned boxes in R^n. *)
module Box : sig
  type t = { lo : Vec.t; hi : Vec.t }

  val make : Vec.t -> Vec.t -> t
  (** @raise Invalid_argument unless [lo <= hi] component-wise with
      equal dimensions. *)

  val of_intervals : Interval.t list -> t

  val dim : t -> int

  val mem : Vec.t -> t -> bool

  val midpoint : t -> Vec.t

  val vertices : t -> Vec.t list
  (** All [2^n] corner points (degenerate coordinates collapse). *)

  val sample_grid : t -> int -> Vec.t list
  (** Full factorial grid with [k] points per dimension (one on a
      degenerate axis, or when [k = 1]).
      @raise Invalid_argument if [k < 1]. *)

  val check_grid : who:string -> t -> int -> unit
  (** The one cap on θ grids: counts the points [sample_grid b k] would
      build, without building them, and refuses more than 4096 — a grid
      is built whole before any deadline can stop it.
      @raise Invalid_argument ["WHO: an uncertain grid of K per axis has
      P points, over the limit of 4096"]. *)

  val sample_uniform : Rng.t -> t -> Vec.t

  val clamp : t -> Vec.t -> Vec.t
end

val minimize_box :
  ?grid:int ->
  ?refine_iters:int ->
  (Vec.t -> float) ->
  Box.t ->
  Vec.t * float
(** Minimise [f] over a box: evaluate all vertices and a [grid]-per-axis
    factorial grid (default 3), then refine the best point by
    shrinking coordinate descent ([refine_iters] sweeps, default 40).
    Exact for multilinear [f] (the minimum is at a vertex); a heuristic
    otherwise. *)

val maximize_box :
  ?grid:int ->
  ?refine_iters:int ->
  (Vec.t -> float) ->
  Box.t ->
  Vec.t * float

val argmax_vertices : (Vec.t -> float) -> Box.t -> Vec.t * float
(** Maximum over the box vertices only — exact arg max for functions
    affine in each coordinate (e.g. Hamiltonians of drifts affine in
    θ). *)
