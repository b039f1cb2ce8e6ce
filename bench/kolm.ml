(* Sec. II-C: imprecise Kolmogorov bounds on a finite chain.  The
   bike-sharing station ICTMC: tight lower/upper expectations of the
   normalised occupancy, cross-checked against (a) exact transient
   expectations for constant theta and (b) adversarial policy
   simulations. *)
open Umf

(* the precise chain of an imprecise one at its v-th θ-vertex *)
let vertex_generator m v =
  Generator.make ~n:(Ctmc.Imprecise.n_states m)
    (List.map
       (fun tr -> Ctmc.Imprecise.(tr.src, tr.dst, tr.rates.(v)))
       (Ctmc.Imprecise.transitions m))

let run () =
  Common.banner "KOLM: bike station imprecise Kolmogorov bounds";
  let p = Bikesharing.default_params in
  let capacity = 20 in
  let m = Bikesharing.ictmc p ~capacity in
  let h = Bikesharing.occupancy_reward ~capacity in
  let x0 = capacity / 2 in
  let times = [ 0.5; 1.; 2.; 5.; 10.; 20. ] in
  Common.header [ "t"; "lower_E[occ]"; "upper_E[occ]"; "const_mid" ];
  let sound = ref true in
  List.iter
    (fun t ->
      let sweep sense =
        (Ctmc.Imprecise.fixed_series ~sense m ~h ~times:[| t |]).values.(0).(x0)
      in
      let lo = sweep `Lower and hi = sweep `Upper in
      (* the station at constant mid θ: a point box, one vertex *)
      let point iv =
        Interval.make (Interval.midpoint iv) (Interval.midpoint iv)
      in
      let mid_p =
        { Bikesharing.arrival = point p.arrival; return_ = point p.return_ }
      in
      let g = vertex_generator (Bikesharing.ictmc mid_p ~capacity) 0 in
      let p0 = Array.init (capacity + 1) (fun i -> if i = x0 then 1. else 0.) in
      let mid = Vec.dot (fst (Ctmc.Transient.uniformization g ~p0 ~t)) h in
      if not (lo -. 1e-3 <= mid && mid <= hi +. 1e-3) then sound := false;
      Printf.printf "%.1f\t%.4f\t%.4f\t%.4f\n" t lo hi mid)
    times;
  Common.claim "constant-theta expectations inside imprecise bounds" !sound "";
  (* adversarial simulation stays within bounds *)
  let horizon = 5. in
  let sweep_at sense t =
    (Ctmc.Imprecise.fixed_series ~sense m ~h ~times:[| t |]).values.(0).(x0)
  in
  let lo = sweep_at `Lower horizon and hi = sweep_at `Upper horizon in
  let policy ~t:_ ~x =
    (* drain aggressively when the station is full, fill when empty *)
    if x > capacity / 2 then [| Interval.hi p.Bikesharing.arrival; Interval.lo p.Bikesharing.return_ |]
    else [| Interval.lo p.Bikesharing.arrival; Interval.hi p.Bikesharing.return_ |]
  in
  (* the policy plays vertices of Θ: exact thinning over the vertex
     generators *)
  let vertices = Optim.Box.vertices (Ctmc.Imprecise.theta_box m) in
  let gens =
    Array.of_list (List.mapi (fun v _ -> vertex_generator m v) vertices)
  in
  let at_vertex th = gens.(Option.get (List.find_index (( = ) th) vertices)) in
  let rate_bound = Ctmc.Imprecise.max_exit_bound m *. 1.000001 in
  let rng = Rng.create 5 in
  let acc = Stats.Running.create () in
  for _ = 1 to 2000 do
    let path =
      Ctmc_simulate.run_imprecise ~rate_bound rng
        (fun ~t ~x -> at_vertex (policy ~t ~x))
        ~x0 ~tmax:horizon
    in
    Stats.Running.add acc h.(Ctmc_path.final_state path)
  done;
  let mean = Stats.Running.mean acc in
  let se = Stats.Running.std acc /. sqrt 2000. in
  Printf.printf "\nadversarial policy: E[occ(%.0f)] = %.4f +/- %.4f, bounds [%.4f, %.4f]\n"
    horizon mean se lo hi;
  Common.claim "adaptive policy simulation within imprecise bounds"
    (mean >= lo -. (4. *. se) -. 0.01 && mean <= hi +. (4. *. se) +. 0.01)
    (Printf.sprintf "%.4f in [%.4f, %.4f]" mean lo hi);
  (* the finite-chain bounds are consistent with the mean-field DI *)
  let di = Bikesharing.di p in
  let fl =
    (Pontryagin.solve ~steps:200 di ~x0:[| 0.5 |] ~horizon:1. ~sense:`Min (`Coord 0)).Pontryagin.value
  in
  let fh =
    (Pontryagin.solve ~steps:200 di ~x0:[| 0.5 |] ~horizon:1. ~sense:`Max (`Coord 0)).Pontryagin.value
  in
  (* chain at horizon t corresponds to fluid at t/N with N-scaled rates;
     here rates are O(1), so fluid horizon 1 ~ chain horizon capacity *)
  let lo_n = sweep_at `Lower (float_of_int capacity)
  and hi_n = sweep_at `Upper (float_of_int capacity) in
  Printf.printf "\nmean-field DI bounds at t=1: [%.4f, %.4f]; chain (N=%d) at t=N: [%.4f, %.4f]\n"
    fl fh capacity lo_n hi_n;
  Common.claim "finite-N bounds within O(1/sqrt N) of mean-field bounds"
    (Float.abs (lo_n -. fl) < 0.3 && Float.abs (hi_n -. fh) < 0.3)
    "loose consistency check (N = 20)"
