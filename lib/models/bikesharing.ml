open Umf_numerics
open Umf_meanfield

type params = { arrival : Interval.t; return_ : Interval.t }

let default_params =
  { arrival = Interval.make 0.8 1.4; return_ = Interval.make 0.9 1.2 }

let theta_box p = Optim.Box.of_intervals [ p.arrival; p.return_ ]

let x0 = [| 0.5 |]

let make p =
  let open Expr in
  let b = var 0 in
  let tr name change rate = { Model.name; change; rate } in
  (* Ite (g, a, b) is [a] where g <= 0: the emptiness/fullness
     indicators written as threshold tests *)
  Model.make ~name:"bike-station" ~var_names:[| "B" |]
    ~theta_names:[| "theta_a"; "theta_r" |] ~theta:(theta_box p) ~x0
    [
      tr "departure" [| -1. |] (Ite (b -: const 1e-12, const 0., theta 0));
      tr "return" [| 1. |] (Ite (b -: const (1. -. 1e-12), theta 1, const 0.));
    ]

let di p = Umf_diffinc.Di.of_model (make p)

let ictmc p ~capacity =
  if capacity <= 0 then invalid_arg "Bikesharing.ictmc: need capacity > 0";
  let box = theta_box p in
  (* departures run at θ_a, returns at θ_r: their rates at the box's
     vertices *)
  let at j =
    Array.of_list (List.map (fun th -> th.(j)) (Optim.Box.vertices box))
  in
  let departure = at 0 and return_ = at 1 in
  let edge src dst rates = { Umf_ctmc.Imprecise_ctmc.src; dst; rates } in
  Umf_ctmc.Imprecise_ctmc.make ~n:(capacity + 1) ~theta:box
    (List.concat_map
       (fun k ->
         (if k > 0 then [ edge k (k - 1) departure ] else [])
         @ if k < capacity then [ edge k (k + 1) return_ ] else [])
       (List.init (capacity + 1) Fun.id))

let occupancy_reward ~capacity =
  Array.init (capacity + 1) (fun k -> float_of_int k /. float_of_int capacity)

let empty_indicator ~capacity =
  Array.init (capacity + 1) (fun k -> if k = 0 then 1. else 0.)
