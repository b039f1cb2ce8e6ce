open Umf_numerics
module Pool = Umf_runtime.Runtime.Pool
module Obs = Umf_obs.Obs

type transition = { src : int; dst : int; rates : float array }

type t = {
  n : int;
  theta : Optim.Box.t;
  n_vertices : int;
  by_src : transition array array;
      (* per state, its transitions in the order [make] was given them *)
}

let make ~n ~theta transitions =
  if n <= 0 then invalid_arg "Imprecise_ctmc.make: need n > 0";
  let nv = List.length (Optim.Box.vertices theta) in
  let acc = Array.make n [] in
  List.iter
    (fun tr ->
      if tr.src < 0 || tr.src >= n || tr.dst < 0 || tr.dst >= n then
        invalid_arg "Imprecise_ctmc.make: state out of range";
      if tr.src = tr.dst then invalid_arg "Imprecise_ctmc.make: self loop";
      if Array.length tr.rates <> nv then
        invalid_arg
          (Printf.sprintf
             "Imprecise_ctmc.make: transition %d -> %d has %d rates for %d \
              theta vertices"
             tr.src tr.dst (Array.length tr.rates) nv);
      (* the sweep's convex-combination bound needs rates >= 0 on Θ;
         for rates affine in θ the vertices decide that *)
      Array.iteri
        (fun v r ->
          if not (r >= 0.) then
            invalid_arg
              (Printf.sprintf
                 "Imprecise_ctmc.make: transition %d -> %d has rate %g at \
                  theta vertex %d"
                 tr.src tr.dst r v))
        tr.rates;
      acc.(tr.src) <- tr :: acc.(tr.src))
    transitions;
  {
    n;
    theta;
    n_vertices = nv;
    by_src = Array.map (fun l -> Array.of_list (List.rev l)) acc;
  }

let n_states m = m.n

let theta_box m = m.theta

let transitions m = List.concat_map Array.to_list (Array.to_list m.by_src)

let max_exit_bound m =
  (* conservative uniformisation rate: max over θ-vertices of the exit
     rates (exact for rates monotone in θ, e.g. affine) *)
  let best = ref 1e-9 in
  Array.iter
    (fun row ->
      for v = 0 to m.n_vertices - 1 do
        let e = Array.fold_left (fun acc tr -> acc +. tr.rates.(v)) 0. row in
        if e > !best then best := e
      done)
    m.by_src;
  !best

let steps_for ?steps_per_unit ~lambda duration =
  let per_unit =
    match steps_per_unit with
    | Some s ->
        if s <= 0 then invalid_arg "Imprecise_ctmc: steps_per_unit <= 0";
        float_of_int s
    | None -> Float.max 100. (10. *. lambda)
  in
  let steps = int_of_float (Float.ceil (duration *. per_unit)) in
  let steps = Stdlib.max steps 1 in
  (* stability guard: the Euler step of the backward equation is a
     convex combination of the current values iff dt·λ <= 1, which is
     what keeps the envelope inside [min h, max h]; auto-refine a too
     coarse user grid instead of letting the sweep blow up *)
  Stdlib.max steps (int_of_float (Float.ceil (duration *. lambda)))

(* Integrate d/dt g(x) = extremum_θ (Q^θ g)(x) for [duration], clamping
   each step to the invariant envelope [hmin, hmax] (under the dt·λ <= 1
   guard the clamp only trims float rounding).  Two swapped buffers
   instead of an allocation per step; each state's value is computed by
   the same per-x arithmetic as before into an index-owned slot, so any
   chunking over a pool is bit-identical to the sequential sweep. *)
let sweep_chunk = 1024

let step_body pick m ~dt ~hmin ~hmax cur nxt lo hi =
  for x = lo to hi - 1 do
    let gx = cur.(x) and row = m.by_src.(x) in
    (* extremise the backward operator row (Q^θ g)(x) over the
       θ-vertices, keeping the first on ties *)
    let best = ref 0. in
    for v = 0 to m.n_vertices - 1 do
      let q = ref 0. in
      for k = 0 to Array.length row - 1 do
        let tr = row.(k) in
        q := !q +. (tr.rates.(v) *. (cur.(tr.dst) -. gx))
      done;
      best := if v = 0 then !q else pick !q !best
    done;
    let v = gx +. (dt *. !best) in
    nxt.(x) <- (if v < hmin then hmin else if v > hmax then hmax else v)
  done

let step_once ?pool pick m ~dt ~hmin ~hmax cur nxt =
  match pool with
  | Some p when m.n > sweep_chunk ->
      let n_chunks = (m.n + sweep_chunk - 1) / sweep_chunk in
      Pool.parallel_for ~stage:"ctmc-backward" ~chunk:1 p n_chunks (fun ci ->
          let lo = ci * sweep_chunk in
          step_body pick m ~dt ~hmin ~hmax cur nxt lo
            (Stdlib.min m.n (lo + sweep_chunk)))
  | _ -> step_body pick m ~dt ~hmin ~hmax cur nxt 0 m.n

let euler_sweep ?pool ?(obs = Obs.off) pick m ~g ~duration ~steps ~hmin ~hmax =
  if duration > 0. then begin
    let dt = duration /. float_of_int steps in
    let sp = Obs.span_begin obs "ctmc.imprecise_sweep" in
    let cur = ref !g and nxt = ref (Vec.zeros m.n) in
    for _ = 1 to steps do
      let c = !cur and nx = !nxt in
      step_once ?pool pick m ~dt ~hmin ~hmax c nx;
      cur := nx;
      nxt := c
    done;
    g := !cur;
    if Obs.enabled obs then
      Obs.span_end
        ~metrics:
          [
            ("steps", float_of_int steps);
            ("rows", float_of_int (m.n * steps));
          ]
        obs sp
    else Obs.span_end obs sp
  end

let picker = function
  | `Lower -> fun a b -> Float.min a b
  | `Upper -> fun a b -> Float.max a b

type sense = [ `Lower | `Upper ]

type sweep = {
  values : Vec.t array;
  eps : float array;
  rounding : float array;
  steps : int;
}

let check_times times =
  let nt = Array.length times in
  if nt = 0 then invalid_arg "Imprecise_ctmc: no times";
  if times.(0) < 0. then invalid_arg "Imprecise_ctmc: negative horizon";
  for j = 1 to nt - 1 do
    if times.(j) <= times.(j - 1) then
      invalid_arg "Imprecise_ctmc: times not increasing"
  done

let osc g =
  let lo = ref g.(0) and hi = ref g.(0) in
  Array.iter
    (fun x ->
      if x < !lo then lo := x;
      if x > !hi then hi := x)
    g;
  !hi -. !lo

(* Per-step floating-point error of the clamped Euler update, bounded
   coarsely but finitely: each of the <= max_row rate/difference
   accumulations per vertex, the vertex extremisation and the final
   axpy contribute O(eps_mach) relative to the working magnitude
   M = max(|h|_inf, λ·osc h).  Propagation does not amplify under the
   dt·λ <= 1 convex-combination regime (the step is nonexpansive), so
   the total is steps · ρ. *)
let rounding_per_step m ~hmin ~hmax ~lambda =
  let max_row =
    Array.fold_left
      (fun acc row -> Stdlib.max acc (Array.length row))
      0 m.by_src
  in
  let scale = Float.max (Float.abs hmin) (Float.abs hmax) in
  let magnitude = Float.max scale (lambda *. (hmax -. hmin)) in
  float_of_int ((3 * max_row * m.n_vertices) + 4) *. epsilon_float *. magnitude

(* A-priori Euler error of one segment at fixed step size δ:
   the local truncation error of d/dt g = Q̲g is
   ‖g(t+δ) − (g(t) + δ Q̲g(t))‖ <= δ²λ²·osc(g) (the second derivative of
   the backward flow is bounded by ‖Q̲(Q̲g)‖ <= 2λ·‖Q̲g‖ <= 2λ²·osc g,
   halved by the Taylor remainder), and the exact and Euler flows are
   both nonexpansive for δλ <= 1, so local errors sum.  osc(g) is
   nonincreasing along the sweep (each step is a per-state convex
   combination), so the segment-start oscillation bounds every step. *)
let fixed_series ?pool ?obs ?steps_per_unit ~sense m ~h ~times =
  if Vec.dim h <> m.n then
    invalid_arg "Imprecise_ctmc: reward dimension mismatch";
  check_times times;
  let lambda = max_exit_bound m in
  let hmin = Vec.min_elt h and hmax = Vec.max_elt h in
  let rho = rounding_per_step m ~hmin ~hmax ~lambda in
  let pick = picker sense in
  let g = ref (Vec.copy h) in
  let prev = ref 0. in
  let err = ref 0. and rnd = ref 0. and total_steps = ref 0 in
  let nt = Array.length times in
  let values = Array.make nt [||] in
  let eps = Array.make nt 0. and rounding = Array.make nt 0. in
  (* the backward equation is autonomous, so one sweep up to the
     largest horizon serves every time point: integrate segment by
     segment and snapshot *)
  Array.iteri
    (fun j t ->
      let duration = t -. !prev in
      if duration > 0. then begin
        let steps = steps_for ?steps_per_unit ~lambda duration in
        let v = osc !g in
        let dt = duration /. float_of_int steps in
        err := !err +. (duration *. dt *. lambda *. lambda *. v);
        rnd := !rnd +. (float_of_int steps *. rho);
        total_steps := !total_steps + steps;
        euler_sweep ?pool ?obs pick m ~g ~duration ~steps ~hmin ~hmax
      end;
      prev := t;
      values.(j) <- Vec.copy !g;
      eps.(j) <- !err;
      rounding.(j) <- !rnd)
    times;
  { values; eps; rounding; steps = !total_steps }

(* Erreygers–De Bock adaptive step selection: spend the error budget at
   a constant rate ε/T per unit time.  With current oscillation v the
   local error of a δ-step is <= δ²λ²v, so per-unit-time error δλ²v
   stays within the rate iff δ <= rate/(λ²v); δ is additionally capped
   by the 1/λ stability bound and the remaining segment.  A constant g
   (v = 0) is a fixed point of the sweep — jump straight to the next
   snapshot. *)
let adaptive_max_steps = 20_000_000

let adaptive_series ?pool ?(obs = Obs.off) ~epsilon ~sense m ~h ~times =
  if Vec.dim h <> m.n then
    invalid_arg "Imprecise_ctmc: reward dimension mismatch";
  if not (epsilon > 0.) then
    invalid_arg "Imprecise_ctmc.adaptive_series: need epsilon > 0";
  check_times times;
  let lambda = max_exit_bound m in
  let hmin = Vec.min_elt h and hmax = Vec.max_elt h in
  let rho = rounding_per_step m ~hmin ~hmax ~lambda in
  let pick = picker sense in
  let nt = Array.length times in
  let t_max = times.(nt - 1) in
  let rate = if t_max > 0. then epsilon /. t_max else infinity in
  let cur = ref (Vec.copy h) and nxt = ref (Vec.zeros m.n) in
  let err = ref 0. and rnd = ref 0. and total_steps = ref 0 in
  let values = Array.make nt [||] in
  let eps = Array.make nt 0. and rounding = Array.make nt 0. in
  let sp = Obs.span_begin obs "ctmc.imprecise_sweep.adaptive" in
  let prev = ref 0. in
  Array.iteri
    (fun j t ->
      let t_rem = ref (t -. !prev) in
      while !t_rem > 0. do
        let v = osc !cur in
        if v <= 0. then t_rem := 0.
        else begin
          let dt =
            Float.min !t_rem
              (Float.min (1. /. lambda) (rate /. (lambda *. lambda *. v)))
          in
          if !total_steps >= adaptive_max_steps then
            failwith
              "Imprecise_ctmc.adaptive_series: step budget exhausted (epsilon \
               too small for this chain's exit rates)";
          let c = !cur and nx = !nxt in
          step_once ?pool pick m ~dt ~hmin ~hmax c nx;
          cur := nx;
          nxt := c;
          err := !err +. (dt *. dt *. lambda *. lambda *. v);
          rnd := !rnd +. rho;
          incr total_steps;
          t_rem := !t_rem -. dt
        end
      done;
      prev := t;
      values.(j) <- Vec.copy !cur;
      eps.(j) <- !err;
      rounding.(j) <- !rnd)
    times;
  if Obs.enabled obs then
    Obs.span_end
      ~metrics:
        [
          ("steps", float_of_int !total_steps);
          ("eps", !err);
          ("rows", float_of_int (m.n * !total_steps));
        ]
      obs sp
  else Obs.span_end obs sp;
  { values; eps; rounding; steps = !total_steps }

let absorbing m ~target =
  { m with by_src = Array.mapi (fun x row -> if target x then [||] else row) m.by_src }
