(* Dense and ODE references for the sparse CTMC kernels. *)
open Umf_numerics
open Umf_ctmc

(* The DTMC transition matrix P = I + Q/Λ of the uniformised chain, Λ
   defaulting to 1.01 * max exit rate (strictly positive even for an
   absorbing chain).  [Sparse.step_into] reproduces
   [Mat.tmulv (uniformized ~rate g) v] bit for bit, summand for
   summand. *)
let uniformized ?rate g =
  let lambda =
    match rate with
    | Some r ->
        if r < Generator.max_exit_rate g then
          invalid_arg "Dense.uniformized: rate below max exit rate";
        r
    | None -> Float.max 1e-9 (1.01 *. Generator.max_exit_rate g)
  in
  let n = Generator.n_states g in
  let p = Mat.identity n in
  for i = 0 to n - 1 do
    Mat.set p i i (1. -. (Generator.exit_rate g i /. lambda));
    Array.iter
      (fun (j, r) -> Mat.set p i j (Mat.get p i j +. (r /. lambda)))
      (Generator.outgoing g i)
  done;
  p

(* The transient distribution by RK4 on the forward Kolmogorov
   equations ṗ = Qᵀp, an independent check of uniformisation. *)
let kolmogorov_ode ?(dt = 1e-3) g ~p0 ~t =
  if t = 0. then Vec.copy p0
  else
    Ode.integrate_to (fun _t p -> Generator.apply_forward g p) ~t0:0. ~y0:p0
      ~t1:t ~dt
