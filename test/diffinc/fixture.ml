(* The solver tests' small inclusions, each a symbolic model compiled
   by [Di.of_model] as every inclusion is *)
open Umf_numerics
open Umf_meanfield

(* a model whose drift is [drift]: one transition per coordinate with a
   unit change, so f_i is [drift.(i)] *)
let model ~theta drift =
  let d = Array.length drift in
  Model.make ~name:"fixture"
    ~var_names:(Array.init d (Printf.sprintf "x%d"))
    ~theta_names:(Array.init (Optim.Box.dim theta) (Printf.sprintf "th%d"))
    ~theta ~x0:(Vec.zeros d)
    (List.init d (fun i ->
         {
           Model.name = Printf.sprintf "f%d" i;
           change = Array.init d (fun k -> if k = i then 1. else 0.);
           rate = drift.(i);
         }))

let di ~lo ~hi drift =
  Umf_diffinc.Di.of_model (model ~theta:(Optim.Box.make lo hi) drift)

(* an SIR-like pair: ṡ = 1 − 1.1 s − i − θ s i, i̇ = 0.1 s + θ s i − 5 i,
   θ ∈ [1, 10] *)
let sir_like () =
  let open Expr in
  let s = var 0 and i = var 1 in
  di ~lo:[| 1. |] ~hi:[| 10. |]
    [|
      const 1. -: (const 1.1 *: s) -: i -: (theta 0 *: s *: i);
      (const 0.1 *: s) +: (theta 0 *: s *: i) -: (const 5. *: i);
    |]
