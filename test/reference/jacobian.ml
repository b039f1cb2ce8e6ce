(* The exact Jacobian ∂f/∂x of a model as a matrix, read off its
   compiled [Model.jac_plan] (d² outputs, row-major): the symbolic side
   that finite differences and closed forms are checked against. *)
open Umf_numerics
module Model = Umf_meanfield.Model

let of_model m x th =
  let d = Model.dim m in
  let out = Vec.zeros (d * d) in
  Tape.Plan.run (Model.jac_plan m) ~x ~th ~out;
  Mat.init d d (fun i j -> out.((i * d) + j))
