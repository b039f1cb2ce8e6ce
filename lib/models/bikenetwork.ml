open Umf_numerics
open Umf_meanfield

type params = {
  stations : int;
  mu : float;
  demand : Interval.t array;
  routing : float array;
  fleet : float;
  rebalance : float;
}

let default_params =
  {
    stations = 3;
    mu = 3.;
    demand =
      [| Interval.make 0.3 0.7; Interval.make 0.1 0.4; Interval.make 0.1 0.4 |];
    routing = [| 1. /. 3.; 1. /. 3.; 1. /. 3. |];
    fleet = 0.6;
    rebalance = 0.;
  }

let with_fleet p fleet = { p with fleet }

let with_rebalance p rebalance = { p with rebalance }

let validate p =
  if p.stations < 2 then invalid_arg "Bikenetwork: need >= 2 stations";
  if Array.length p.demand <> p.stations then
    invalid_arg "Bikenetwork: demand length mismatch";
  if Array.length p.routing <> p.stations then
    invalid_arg "Bikenetwork: routing length mismatch";
  if Float.abs (Vec.sum p.routing -. 1.) > 1e-9 then
    invalid_arg "Bikenetwork: routing must sum to 1";
  if p.fleet <= 0. || p.fleet >= 1. then
    invalid_arg "Bikenetwork: fleet density must be in (0, 1)";
  if p.rebalance < 0. then
    invalid_arg "Bikenetwork: negative rebalance capacity"

let dim p = p.stations + 1

let capacity p = 1. /. float_of_int p.stations

let x0 p =
  validate p;
  let per_station = p.fleet /. float_of_int p.stations in
  Array.init (dim p) (fun i -> if i = p.stations then 0. else per_station)

let state_box p =
  let cap = capacity p in
  let d = dim p in
  Optim.Box.make (Vec.zeros d)
    (Array.init d (fun i -> if i = d - 1 then 1. else cap))

let make p =
  validate p;
  let open Expr in
  let k = p.stations in
  let z_idx = k in
  let unit i s =
    let v = Vec.zeros (k + 1) in
    v.(i) <- s;
    v
  in
  let cap = capacity p in
  (* Ite (g, a, b) is [a] where g <= 0: empty/full threshold guards *)
  let departure i =
    {
      Model.name = Printf.sprintf "depart-%d" (i + 1);
      change = Vec.add (unit i (-1.)) (unit z_idx 1.);
      rate = Ite (var i -: const 1e-12, const 0., theta i);
    }
  in
  let arrival i =
    (* returns are blocked at a full station and stay in transit *)
    {
      Model.name = Printf.sprintf "return-%d" (i + 1);
      change = Vec.add (unit i 1.) (unit z_idx (-1.));
      rate =
        Ite
          ( var i -: const (cap -. 1e-12),
            const p.mu *: max_ (const 0.) (var z_idx) *: const p.routing.(i),
            const 0. );
    }
  in
  (* truck rebalancing (the redistribution of [22]): bikes are moved
     from station j towards station i at a pressure-driven rate
     proportional to j's stock and i's free racks *)
  let rebalances =
    if p.rebalance = 0. then []
    else
      List.concat_map
        (fun j ->
          List.filter_map
            (fun i ->
              if i = j then None
              else
                Some
                  {
                    Model.name =
                      Printf.sprintf "rebalance-%d-%d" (j + 1) (i + 1);
                    change = Vec.add (unit j (-1.)) (unit i 1.);
                    rate =
                      const p.rebalance
                      *: max_ (const 0.) (var j)
                      *: (max_ (const 0.) (const cap -: var i) /: const cap);
                  })
            (List.init k Fun.id))
        (List.init k Fun.id)
  in
  Model.make ~name:"bike-network"
    ~var_names:
      (Array.init (k + 1) (fun i ->
           if i = k then "Z" else Printf.sprintf "S%d" (i + 1)))
    ~theta_names:(Array.init k (fun i -> Printf.sprintf "theta%d" (i + 1)))
    ~theta:(Optim.Box.of_intervals (Array.to_list p.demand))
    ~x0:(x0 p) ~clip:(state_box p)
    (List.init k departure @ List.init k arrival @ rebalances)

let di p = Umf_diffinc.Di.of_model (make p)

let total_bikes x = Vec.sum x

let min_station p x =
  let best = ref Float.infinity in
  for i = 0 to p.stations - 1 do
    if x.(i) < !best then best := x.(i)
  done;
  !best

let starvation_constraints p ~level =
  List.init p.stations (fun i ->
      Umf_diffinc.Safety.ge
        ~label:(Printf.sprintf "station %d keeps >= %g bikes" (i + 1) level)
        ~coord:i ~dim:(dim p) level)
