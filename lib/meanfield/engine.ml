open Umf_numerics
module Obs = Umf_obs.Obs
module Pool = Umf_runtime.Runtime.Pool
module Transient = Umf_ctmc.Transient
module Stationary = Umf_ctmc.Stationary
module Imprecise_ctmc = Umf_ctmc.Imprecise_ctmc

type truncation =
  | Exact of { max_states : int }
  | Adaptive of { max_states : int }

type scenario = Imprecise | Uncertain of int

type reward =
  | Coord of int
  | Custom of { f : Vec.t -> float; range : float * float }

type spec = {
  model : Model.t;
  scenario : scenario;
  theta : Optim.Box.t option;
  n : int;
  horizon : float;
  times : float array option;
  epsilon : float;
  sweep_eps : float option;
  truncation : truncation;
  pool : Pool.t option;
  obs : Obs.t;
}

let spec ?(scenario = Imprecise) ?theta ?(horizon = 10.) ?times
    ?(epsilon = 1e-12) ?sweep_eps
    ?(truncation = Exact { max_states = 2_000_000 }) ?pool ?(obs = Obs.off) ~n
    model =
  if n < 1 then invalid_arg "Engine.spec: need n >= 1";
  if horizon <= 0. then invalid_arg "Engine.spec: need horizon > 0";
  if not (epsilon > 0. && epsilon < 1.) then
    invalid_arg "Engine.spec: epsilon must be in (0, 1)";
  (match sweep_eps with
  | Some e when not (e > 0.) ->
      invalid_arg "Engine.spec: sweep_eps must be > 0"
  | _ -> ());
  (match truncation with
  | Exact { max_states } | Adaptive { max_states } ->
      if max_states < 1 then invalid_arg "Engine.spec: need max_states >= 1");
  (match scenario with
  | Uncertain g when g < 2 -> invalid_arg "Engine.spec: need grid >= 2"
  | Uncertain _ | Imprecise -> ());
  (match theta with
  | Some b when Optim.Box.dim b <> Model.theta_dim model ->
      invalid_arg "Engine.spec: theta box dimension mismatch"
  | _ -> ());
  (match times with
  | Some ts ->
      if Array.length ts = 0 then invalid_arg "Engine.spec: empty times";
      if ts.(0) < 0. then invalid_arg "Engine.spec: negative time";
      for j = 1 to Array.length ts - 1 do
        if ts.(j) <= ts.(j - 1) then
          invalid_arg "Engine.spec: times not increasing"
      done
  | None -> ());
  {
    model;
    scenario;
    theta;
    n;
    horizon;
    times;
    epsilon;
    sweep_eps;
    truncation;
    pool;
    obs;
  }

let theta_box s = match s.theta with Some b -> b | None -> Model.theta s.model

let times_of s =
  match s.times with Some ts -> ts | None -> Vec.linspace 0. s.horizon 11

let space s =
  let pop = Model.population s.model in
  let truncation, max_states =
    match s.truncation with
    | Exact { max_states } -> (`Exact, max_states)
    | Adaptive { max_states } -> (`Adaptive, max_states)
  in
  Ctmc_of_population.state_space ~obs:s.obs ~theta:(theta_box s)
    ~clip:(Model.clip s.model) ~max_states ~truncation pop ~n:s.n
    ~x0:(Model.x0 s.model)

let space_of ?space:sp s = match sp with Some sp -> sp | None -> space s

let theta_point ?theta s =
  match theta with
  | None -> Optim.Box.midpoint (theta_box s)
  | Some th ->
      if Vec.dim th <> Model.theta_dim s.model then
        invalid_arg "Engine: theta dimension mismatch";
      th

(* Tabulate a reward over the retained lattice and resolve its range
   over the model's declared domain (the clip box) — the [rlo, rhi]
   pair the certificates are priced against. *)
let resolve_reward s sp = function
  | Coord i ->
      if i < 0 || i >= Model.dim s.model then
        invalid_arg "Engine: reward coordinate out of range";
      let clip = Model.clip s.model in
      (Ctmc_of_population.reward sp (fun x -> x.(i)), clip.lo.(i), clip.hi.(i))
  | Custom { f; range = rlo, rhi } ->
      if not (rlo <= rhi) then invalid_arg "Engine: empty reward range";
      (Ctmc_of_population.reward sp f, rlo, rhi)

(* The forward operator of a spec: the exact generator on a fully
   enumerated space, the substochastic pair on a truncated one. *)
let generator_of s sp ~theta =
  let pop = Model.population s.model in
  if Ctmc_of_population.truncated sp then begin
    let g, leak =
      Ctmc_of_population.truncated_generator ?pool:s.pool ~obs:s.obs sp pop
        ~theta
    in
    (g, Some leak)
  end
  else
    (Ctmc_of_population.generator ?pool:s.pool ~obs:s.obs sp pop ~theta, None)

let lost (c : Transient.certificate) = c.escaped +. c.tail

(* Expectations plus the per-time probability mass they do not carry
   (escaped + Poisson tail), the quantity every certificate below
   prices on its truncation line. *)
let certified_series s sp ~theta ~times hs =
  let g, leak = generator_of s sp ~theta in
  let p0 = Ctmc_of_population.point_mass sp in
  let value, certificates =
    Transient.expectation_series_certified ?pool:s.pool ~obs:s.obs
      ~epsilon:s.epsilon ?leak g ~p0 ~times hs
  in
  (value, Array.map lost certificates)

(* The ledger view of a [lower, upper] enclosure whose width comes from
   lost probability mass priced over the reward range [rlo, rhi]. *)
let mass_cert ~lost ~rlo ~rhi lo hi =
  Cert.of_interval
    ~budget:(Cert.budget ~truncation:(lost *. (rhi -. rlo)) ())
    (Interval.make lo hi)

type transient = {
  n : int;
  states : int;
  theta : Vec.t;
  times : float array;
  value : float array array;
  lower : float array array;
  upper : float array array;
  lost : float array;
  certs : Cert.t array array;
}

let transient ?theta ?space s ~rewards =
  let nr = Array.length rewards in
  if nr = 0 then invalid_arg "Engine.transient: no rewards";
  let sp = space_of ?space s in
  let theta = theta_point ?theta s in
  let resolved = Array.map (resolve_reward s sp) rewards in
  let hs = Array.map (fun (h, _, _) -> h) resolved in
  let times = times_of s in
  let value, lost = certified_series s sp ~theta ~times hs in
  let nt = Array.length times in
  let lower = Array.make_matrix nt nr 0.
  and upper = Array.make_matrix nt nr 0. in
  for j = 0 to nt - 1 do
    let l = lost.(j) in
    for r = 0 to nr - 1 do
      let _, rlo, rhi = resolved.(r) in
      lower.(j).(r) <- value.(j).(r) +. (l *. rlo);
      upper.(j).(r) <- value.(j).(r) +. (l *. rhi)
    done
  done;
  let certs =
    Array.init nt (fun j ->
        Array.init nr (fun r ->
            let _, rlo, rhi = resolved.(r) in
            mass_cert ~lost:lost.(j) ~rlo ~rhi lower.(j).(r) upper.(j).(r)))
  in
  {
    n = s.n;
    states = Ctmc_of_population.n_states sp;
    theta;
    times;
    value;
    lower;
    upper;
    lost;
    certs;
  }

type envelope = {
  n : int;
  states : int;
  times : float array;
  mean : float array;
  lower : float array;
  upper : float array;
  lost : float array;
  certs : Cert.t array;
  sweep_steps : int;
}

(* The imprecise lower/upper sweeps of a spec: a fixed grid of
   [fixed_steps] over the horizon by default, adaptive with target
   [sweep_eps] when the spec names one. *)
let fixed_steps = 400

let imprecise_sweep s ~sense im ~h ~times =
  match s.sweep_eps with
  | Some epsilon ->
      Imprecise_ctmc.adaptive_series ?pool:s.pool ~obs:s.obs ~epsilon ~sense
        im ~h ~times
  | None ->
      let steps_per_unit =
        Stdlib.max 1
          (int_of_float (Float.ceil (float_of_int fixed_steps /. s.horizon)))
      in
      Imprecise_ctmc.fixed_series ?pool:s.pool ~obs:s.obs ~steps_per_unit
        ~sense im ~h ~times

let envelope ?space s ~reward =
  let sp = space_of ?space s in
  let pop = Model.population s.model in
  let box = theta_box s in
  let h, rlo, rhi = resolve_reward s sp reward in
  let times = times_of s in
  let nt = Array.length times in
  let series theta =
    let vals, lost = certified_series s sp ~theta ~times [| h |] in
    (Array.map (fun row -> row.(0)) vals, lost)
  in
  let mean, lost = series (Optim.Box.midpoint box) in
  let lower, upper, disc, rnd, sweep_steps =
    match s.scenario with
    | Imprecise ->
        if not (Model.affine_in_theta s.model) then
          invalid_arg
            "Engine.envelope: imprecise finite-N bounds need rates affine in \
             theta (vertex extremisation is only exact there); use the \
             Uncertain scenario";
        let im = Ctmc_of_population.imprecise ~theta:box sp pop in
        let x0i = Ctmc_of_population.x0_index sp in
        (* a truncated space's imprecise chain carries one absorbing
           sink: pin its reward at the full-domain extremum so escaped
           mass is priced at worst case and the sweep stays an outer
           bound *)
        let extend h sink_value =
          if Imprecise_ctmc.n_states im > Ctmc_of_population.n_states sp then
            Array.append h [| sink_value |]
          else h
        in
        let lo = imprecise_sweep s ~sense:`Lower im ~h:(extend h rlo) ~times in
        let hi = imprecise_sweep s ~sense:`Upper im ~h:(extend h rhi) ~times in
        ( Array.map (fun v -> v.(x0i)) lo.Imprecise_ctmc.values,
          Array.map (fun v -> v.(x0i)) hi.Imprecise_ctmc.values,
          Array.init nt (fun j -> Float.max lo.eps.(j) hi.eps.(j)),
          Array.init nt (fun j -> Float.max lo.rounding.(j) hi.rounding.(j)),
          lo.steps + hi.steps )
    | Uncertain grid ->
        let lo = Array.make nt Float.infinity
        and hi = Array.make nt Float.neg_infinity in
        List.iter
          (fun th ->
            let e, lost_th = series th in
            for j = 0 to nt - 1 do
              let l = lost_th.(j) in
              if e.(j) +. (l *. rlo) < lo.(j) then lo.(j) <- e.(j) +. (l *. rlo);
              if e.(j) +. (l *. rhi) > hi.(j) then hi.(j) <- e.(j) +. (l *. rhi)
            done)
          (Optim.Box.sample_grid box grid);
        (lo, hi, Array.make nt 0., Array.make nt 0., 0)
  in
  let certs =
    Array.init nt (fun j ->
        mass_cert ~lost:lost.(j) ~rlo ~rhi lower.(j) upper.(j)
        |> Cert.widen ~discretisation:disc.(j) ~rounding:rnd.(j))
  in
  {
    n = s.n;
    states = Ctmc_of_population.n_states sp;
    times;
    mean;
    lower;
    upper;
    lost;
    certs;
    sweep_steps;
  }

type stationary = {
  n : int;
  states : int;
  theta : Vec.t;
  pi : Vec.t;
  values : float array;
  certs : Cert.t array;
}

let stationary ?theta ?space ?(tol = 1e-12) ?(max_iter = 1_000_000) s ~rewards
    =
  (match s.truncation with
  | Adaptive _ ->
      invalid_arg
        "Engine.stationary: needs Exact truncation (a substochastic \
         truncated chain has no stationary distribution)"
  | Exact _ -> ());
  let sp = space_of ?space s in
  let theta = theta_point ?theta s in
  let pop = Model.population s.model in
  let g =
    Ctmc_of_population.generator ?pool:s.pool ~obs:s.obs sp pop ~theta
  in
  let pi =
    Stationary.power_iteration ?pool:s.pool ~obs:s.obs ~tol ~max_iter g
  in
  let resolved = Array.map (resolve_reward s sp) rewards in
  let values = Array.map (fun (h, _, _) -> Vec.dot h pi) resolved in
  (* the power-iteration residual is a ledger line, not a rigorous
     distance to the true expectation: the value interval is widened by
     tol scaled to the reward range so downstream consumers see a
     non-degenerate, clearly-attributed optimiser contribution *)
  let certs =
    Array.map2
      (fun (_, rlo, rhi) v ->
        let pad = tol *. Float.max 1. (rhi -. rlo) in
        Cert.widen ~optimiser:pad (Cert.exact v))
      resolved values
  in
  {
    n = s.n;
    states = Ctmc_of_population.n_states sp;
    theta;
    pi;
    values;
    certs;
  }

type distribution = {
  n : int;
  states : int;
  theta : Vec.t;
  p : Vec.t;
  cert : Cert.t;
}

let distribution ?theta ?space s =
  let sp = space_of ?space s in
  let theta = theta_point ?theta s in
  let g, leak = generator_of s sp ~theta in
  let p0 = Ctmc_of_population.point_mass sp in
  let p, certificate =
    Transient.uniformization_certified ?pool:s.pool ~obs:s.obs
      ~epsilon:s.epsilon ?leak g ~p0 ~t:s.horizon
  in
  let retained = Vec.sum p in
  let l = lost certificate in
  let cert =
    Cert.of_interval
      ~budget:(Cert.budget ~truncation:l ())
      (Interval.make retained (retained +. l))
  in
  {
    n = s.n;
    states = Ctmc_of_population.n_states sp;
    theta;
    p;
    cert;
  }
