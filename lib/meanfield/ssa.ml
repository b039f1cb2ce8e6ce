open Umf_numerics
module Runtime = Umf_runtime.Runtime
module Pool = Runtime.Pool
module Obs = Umf_obs.Obs

(* Core Gillespie loop.  [on_hold t0 t1 x] is invoked for every maximal
   interval on which the density state is the constant [x] (a copy);
   the union of intervals is exactly [0, tmax].  The loop reads [obs]'s
   clock at its start and every 4096 events, so a deadline clock can
   cancel a long run. *)
let run ?(obs = Obs.off) model ~n ~x0 ~(policy : Policy.t) ~tmax ~rng ~on_hold
    =
  if n <= 0 then invalid_arg "Ssa: need n > 0";
  if tmax < 0. then invalid_arg "Ssa: negative horizon";
  if Vec.dim x0 <> Model.dim model then
    invalid_arg "Ssa: x0 dimension mismatch";
  let nf = float_of_int n in
  let counts = Vec.map (fun v -> Float.round (v *. nf)) x0 in
  let inst = policy.Policy.instantiate () in
  let trs = Array.of_list (Model.transitions model) in
  let ntrans = Array.length trs in
  let box = Model.theta model in
  let t = ref 0. in
  let events = ref 0 in
  let density () = Vec.scale (1. /. nf) counts in
  let finished = ref false in
  while not !finished do
    if !events land 4095 = 0 then Obs.checkpoint obs;
    let x = density () in
    let theta = Optim.Box.clamp box (inst.Policy.theta !t x) in
    let props = Model.propensities model ~n x theta in
    let jump_rate = inst.Policy.jump_rate !t x in
    if jump_rate < 0. then invalid_arg "Ssa: negative policy jump rate";
    let total = Vec.sum props +. jump_rate in
    if total <= 0. then begin
      on_hold !t tmax x;
      t := tmax;
      finished := true
    end
    else begin
      let dt = Rng.exponential rng total in
      if !t +. dt >= tmax then begin
        on_hold !t tmax x;
        t := tmax;
        finished := true
      end
      else begin
        let t' = !t +. dt in
        on_hold !t t' x;
        let weights = Array.append props [| jump_rate |] in
        let k = Rng.categorical rng weights in
        if k < ntrans then begin
          let tr = trs.(k) in
          Vec.axpy_in_place 1. tr.Model.change counts;
          Array.iteri
            (fun i c ->
              if c < -1e-9 then
                failwith
                  (Printf.sprintf
                     "Ssa: transition %s drove count of %s negative"
                     tr.Model.name
                     (Model.var_names model).(i)))
            counts
        end
        else inst.Policy.do_jump rng t' (density ());
        incr events;
        t := t';
        inst.Policy.notify t' (density ())
      end
    end
  done;
  (density (), !events)

let final ?(obs = Obs.off) model ~n ~x0 ~policy ~tmax rng =
  let x, events =
    run ~obs model ~n ~x0 ~policy ~tmax ~rng ~on_hold:(fun _ _ _ -> ())
  in
  if Obs.enabled obs then Obs.count obs "ssa.events" events;
  x

let count_events model ~n ~x0 ~policy ~tmax rng =
  let _, events =
    run model ~n ~x0 ~policy ~tmax ~rng ~on_hold:(fun _ _ _ -> ())
  in
  events

let trajectory model ~n ~x0 ~policy ~tmax rng =
  let times = ref [] and states = ref [] in
  let on_hold t0 _t1 x =
    match !times with
    | prev :: _ when t0 <= prev -> ()
    | _ ->
        times := t0 :: !times;
        states := x :: !states
  in
  let xf, _ = run model ~n ~x0 ~policy ~tmax ~rng ~on_hold in
  (* close the trajectory at the horizon *)
  (match !times with
  | prev :: _ when tmax > prev ->
      times := tmax :: !times;
      states := xf :: !states
  | _ -> ());
  Ode.Traj.of_arrays
    (Array.of_list (List.rev !times))
    (Array.of_list (List.rev !states))

let sampled ?(obs = Obs.off) model ~n ~x0 ~policy ~times rng =
  let m = Array.length times in
  if m = 0 then [||]
  else begin
    let sp = Obs.span_begin obs "ssa.sampled" in
    for i = 1 to m - 1 do
      if times.(i) <= times.(i - 1) then
        invalid_arg "Ssa.sampled: times not increasing"
    done;
    if times.(0) < 0. then invalid_arg "Ssa.sampled: negative sample time";
    let tmax = times.(m - 1) +. 1e-12 in
    let out = Array.make m [||] in
    let next = ref 0 in
    let on_hold t0 t1 x =
      (* samples in [t0, t1) see state x; the final hold is closed at
         the horizon so the last sample is always emitted *)
      while !next < m && times.(!next) >= t0 -. 1e-12 && times.(!next) < t1 do
        out.(!next) <- x;
        incr next
      done
    in
    let xf, events = run ~obs model ~n ~x0 ~policy ~tmax ~rng ~on_hold in
    while !next < m do
      out.(!next) <- xf;
      incr next
    done;
    if Obs.enabled obs then begin
      Obs.count obs "ssa.events" events;
      Obs.span_end
        ~metrics:
          [ ("samples", float_of_int m); ("events", float_of_int events) ]
        obs sp
    end;
    out
  end

let replicate ?pool ?(obs = Obs.off) model ~n ~x0 ~policy ~tmax ~reps ~seed =
  if reps <= 0 then invalid_arg "Ssa.replicate: need reps > 0";
  let on = Obs.enabled obs in
  let sp = Obs.span_begin obs "ssa.replicate" in
  (* replication [i] always runs on the stream derived from (seed, i),
     so the batch is a pure function of its arguments: sequential and
     parallel runs of any domain count are bit-identical *)
  let one i =
    let x =
      final ~obs model ~n ~x0 ~policy ~tmax (Runtime.Seeds.rng ~root:seed i)
    in
    (* per-replication tick: replication progress is visible live in a
       trace stream *)
    if on then Obs.count obs "ssa.reps" 1;
    x
  in
  let out =
    match pool with
    | None -> Array.init reps one
    | Some p ->
        Pool.parallel_map ~stage:"ssa-replicate" p one (Array.init reps Fun.id)
  in
  if on then
    Obs.span_end ~metrics:[ ("reps", float_of_int reps) ] obs sp;
  out

let time_average model ~n ~x0 ~policy ~tmax ~warmup ~reward rng =
  if warmup < 0. || warmup >= tmax then
    invalid_arg "Ssa.time_average: need 0 <= warmup < tmax";
  let acc = ref 0. in
  let on_hold t0 t1 x =
    let a = Float.max t0 warmup and b = t1 in
    if b > a then acc := !acc +. ((b -. a) *. reward x)
  in
  let _ = run model ~n ~x0 ~policy ~tmax ~rng ~on_hold in
  !acc /. (tmax -. warmup)
