(** Finite-difference derivatives: the oracle the exact symbolic
    derivatives ({!Umf_numerics.Expr.diff_var}, the models' Jacobians)
    are checked against. *)

open Umf_numerics

val derivative : ?h:float -> (float -> float) -> float -> float
(** Central difference df/dx. *)

val gradient : ?h:float -> (Vec.t -> float) -> Vec.t -> Vec.t

val jacobian : ?h:float -> (Vec.t -> Vec.t) -> Vec.t -> Mat.t
(** [jacobian f x] is the matrix J with J(i)(j) = ∂f_i/∂x_j, by central
    differences with per-coordinate step scaled to [x]. *)

val jacobian_tv : ?h:float -> (Vec.t -> Vec.t) -> Vec.t -> Vec.t -> Vec.t
(** [jacobian_tv f x p] is Jᵀ p without materialising J — one gradient
    of the scalar map [y ↦ f(y)·p]. *)
