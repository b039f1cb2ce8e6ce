open Umf_numerics

let run_generic rng gen_at ~x0 ~tmax =
  if tmax < 0. then invalid_arg "Simulate.run: negative horizon";
  let times = ref [ 0. ] and states = ref [ x0 ] in
  let t = ref 0. and x = ref x0 in
  let absorbed = ref false in
  while (not !absorbed) && !t < tmax do
    let g = gen_at ~t:!t ~x:!x in
    let out = Generator.outgoing g !x in
    let exit = Generator.exit_rate g !x in
    if exit <= 0. then absorbed := true
    else begin
      let dt = Rng.exponential rng exit in
      let t' = !t +. dt in
      if t' >= tmax then t := tmax
      else begin
        let weights = Array.map snd out in
        let k = Rng.categorical rng weights in
        let x' = fst out.(k) in
        t := t';
        x := x';
        times := t' :: !times;
        states := x' :: !states
      end
    end
  done;
  Path.make
    ~times:(Array.of_list (List.rev !times))
    ~states:(Array.of_list (List.rev !states))
    ~horizon:tmax

let run rng g ~x0 ~tmax = run_generic rng (fun ~t:_ ~x:_ -> g) ~x0 ~tmax

(* Lewis/Ogata thinning: candidate events at the bounding rate lambda,
   accepted with probability exit(t,x)/lambda.  Exact for any
   measurable time/state dependence as long as lambda dominates. *)
let run_thinned rng gen_at ~x0 ~tmax ~rate_bound =
  if tmax < 0. then invalid_arg "Simulate.run: negative horizon";
  if rate_bound <= 0. then invalid_arg "Simulate: rate_bound <= 0";
  let times = ref [ 0. ] and states = ref [ x0 ] in
  let t = ref 0. and x = ref x0 in
  while !t < tmax do
    let dt = Rng.exponential rng rate_bound in
    let t' = !t +. dt in
    if t' >= tmax then t := tmax
    else begin
      t := t';
      let g = gen_at ~t:t' ~x:!x in
      let exit = Generator.exit_rate g !x in
      if exit > rate_bound *. (1. +. 1e-9) then
        invalid_arg "Simulate: rate_bound exceeded";
      if Rng.float rng < exit /. rate_bound then begin
        let out = Generator.outgoing g !x in
        let weights = Array.map snd out in
        let k = Rng.categorical rng weights in
        x := fst out.(k);
        times := t' :: !times;
        states := !x :: !states
      end
    end
  done;
  Path.make
    ~times:(Array.of_list (List.rev !times))
    ~states:(Array.of_list (List.rev !states))
    ~horizon:tmax

let run_imprecise ?rate_bound rng gen_at ~x0 ~tmax =
  match rate_bound with
  | Some rb -> run_thinned rng gen_at ~x0 ~tmax ~rate_bound:rb
  | None -> run_generic rng gen_at ~x0 ~tmax

let mean_reward rng g ~x0 ~tmax ~runs reward =
  if runs <= 0 then invalid_arg "Simulate.mean_reward: need runs > 0";
  let acc = Stats.Running.create () in
  for _ = 1 to runs do
    let path = run rng g ~x0 ~tmax in
    Stats.Running.add acc (reward (Path.final_state path))
  done;
  ( Stats.Running.mean acc,
    Stats.Running.std acc /. sqrt (float_of_int runs) )
