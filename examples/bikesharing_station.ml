(* Sizing a bike-sharing station (the paper's running example of
   Secs. II-III): demand rates vary with weather, events and transit
   disruptions, so we only know intervals for the pickup rate theta_a
   and return rate theta_r.  How likely is the station to be found
   empty, and how many racks make that risk acceptable whatever the
   environment does?

   Run with: dune exec examples/bikesharing_station.exe *)
open Umf

let () =
  let p = Bikesharing.default_params in
  Printf.printf
    "pickup rate in [%g, %g], return rate in [%g, %g] (bikes/hour)\n\n"
    (Interval.lo p.Bikesharing.arrival)
    (Interval.hi p.Bikesharing.arrival)
    (Interval.lo p.Bikesharing.return_)
    (Interval.hi p.Bikesharing.return_);

  (* exact imprecise bounds on the finite chain, per station size *)
  print_endline "capacity\tP(empty at t=8), worst case over environments";
  let horizon = 8. in
  List.iter
    (fun capacity ->
      let m = Bikesharing.ictmc p ~capacity in
      let h = Bikesharing.empty_indicator ~capacity in
      let hi =
        (Ctmc.Imprecise.fixed_series ~sense:`Upper m ~h ~times:[| horizon |])
          .values.(0)
      in
      (* start half full *)
      Printf.printf "%d\t\t%.4f\n" capacity hi.(capacity / 2))
    [ 4; 8; 12; 16; 24 ];

  (* the mean-field view for a large station *)
  let di = Bikesharing.di p in
  let lo =
    (Pontryagin.solve ~steps:200 di ~x0:[| 0.5 |] ~horizon:0.4 ~sense:`Min
       (`Coord 0))
      .Pontryagin.value
  in
  let hi =
    (Pontryagin.solve ~steps:200 di ~x0:[| 0.5 |] ~horizon:0.4 ~sense:`Max
       (`Coord 0))
      .Pontryagin.value
  in
  Printf.printf
    "\nlarge-station fluid limit: occupancy after 0.4 rescaled time units\n\
     can be anywhere in [%.2f, %.2f] of capacity\n" lo hi;

  (* simulate a small station under a rush-hour-like policy: heavy
     pickups and slow returns for three hours, then the reverse.  Both
     phases sit at vertices of the parameter box, so each is the precise
     chain with the station's rates at that vertex *)
  let m = Bikesharing.ictmc p ~capacity:12 in
  let vertices = Optim.Box.vertices (Ctmc.Imprecise.theta_box m) in
  let vertex_generator theta =
    let v = Option.get (List.find_index (( = ) theta) vertices) in
    Generator.make ~n:(Ctmc.Imprecise.n_states m)
      (List.map
         (fun tr -> Ctmc.Imprecise.(tr.src, tr.dst, tr.rates.(v)))
         (Ctmc.Imprecise.transitions m))
  in
  let rush_hour =
    vertex_generator
      [| Interval.hi p.Bikesharing.arrival; Interval.lo p.Bikesharing.return_ |]
  and evening =
    vertex_generator
      [| Interval.lo p.Bikesharing.arrival; Interval.hi p.Bikesharing.return_ |]
  in
  let rush ~t ~x:_ = if t < 3. then rush_hour else evening in
  let rate_bound = Ctmc.Imprecise.max_exit_bound m *. 1.000001 in
  let rng = Rng.create 2 in
  let empty_runs = ref 0 in
  let runs = 1000 in
  for _ = 1 to runs do
    let path =
      Ctmc_simulate.run_imprecise ~rate_bound rng rush ~x0:6 ~tmax:horizon
    in
    let hit_empty = ref false in
    Array.iter (fun s -> if s = 0 then hit_empty := true) path.Ctmc_path.states;
    if !hit_empty then incr empty_runs
  done;
  Printf.printf
    "\nrush-hour scenario on a 12-rack station: ran dry in %d/%d runs (%.1f%%)\n"
    !empty_runs runs
    (100. *. float_of_int !empty_runs /. float_of_int runs)
