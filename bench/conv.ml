(* Theorem 1 quantitatively: the sup-norm error between the size-N SIR
   process (constant theta) and its mean-field ODE limit decays like
   O(1/sqrt N). *)
open Umf

let run () =
  Common.banner "CONV: mean-field convergence rate (Theorem 1)";
  let p = Sir.default_params in
  let model = Sir.make p in
  let times = Vec.linspace 0. 5. 11 in
  Common.header [ "N"; "mean_sup_error"; "error*sqrt(N)" ];
  let errors =
    List.map
      (fun n ->
        let e =
          Convergence.error_vs_limit model ~n ~theta:[| 5. |] ~x0:Sir.x0 ~times
            ~runs:20 ~seed:123
        in
        Printf.printf "%d\t%.5f\t%.3f\n" n e (e *. sqrt (float_of_int n));
        (n, e))
      [ 100; 400; 1600; 6400 ]
  in
  match errors with
  | [ (_, e0); _; _; (_, e3) ] ->
      (* N grew by 64: a 1/sqrt(N) rate predicts a factor-8 reduction *)
      Common.claim "error decays at ~1/sqrt(N)"
        (e0 /. e3 > 4. && e0 /. e3 < 16.)
        (Printf.sprintf "reduction factor %.1f over 64x N" (e0 /. e3))
  | _ -> ()
