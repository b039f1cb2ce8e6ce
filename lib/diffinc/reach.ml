open Umf_numerics
module Runtime = Umf_runtime.Runtime
module Pool = Runtime.Pool
module Obs = Umf_obs.Obs

let random_piecewise_control rng di ~horizon ~switches ~vertex_bias =
  let vertices = Array.of_list (Optim.Box.vertices di.Di.theta) in
  let n_pieces = 1 + Rng.int rng (switches + 1) in
  let cuts =
    Array.init (n_pieces - 1) (fun _ -> Rng.float_range rng 0. horizon)
  in
  Array.sort compare cuts;
  let draw () =
    if Rng.float rng < vertex_bias then
      Vec.copy vertices.(Rng.int rng (Array.length vertices))
    else Optim.Box.sample_uniform rng di.Di.theta
  in
  let values = Array.init n_pieces (fun _ -> draw ()) in
  fun t _x ->
    let rec piece i = if i < Array.length cuts && t >= cuts.(i) then piece (i + 1) else i in
    values.(piece 0)

let sample_states ?pool ?(obs = Obs.off) ?(dt = 1e-2) ?(switches = 4)
    ?(vertex_bias = 0.7) di ~x0 ~horizon ~n_controls rng =
  if n_controls <= 0 then invalid_arg "Reach.sample_states: need n_controls > 0";
  if horizon <= 0. then invalid_arg "Reach.sample_states: need horizon > 0";
  let sp = Obs.span_begin obs "reach.sample" in
  let draw rng =
    random_piecewise_control rng di ~horizon ~switches ~vertex_bias
  in
  (* integration consumes no randomness, so drawing every control first
     and batch-integrating afterwards reads the caller's stream in
     exactly the order the integrate-as-you-draw loop did.  With a pool,
     one draw from the caller's stream picks a root and control [i]
     runs on its own splitmix64-derived generator, so the cloud is a
     function of (root, i) only — bit-identical for any domain count *)
  let controls =
    match pool with
    | None -> Array.init n_controls (fun _ -> draw rng)
    | Some _ ->
        let root = Int64.to_int (Rng.uint64 rng) in
        Array.init n_controls (fun i -> draw (Runtime.Seeds.rng ~root i))
  in
  let out =
    Di.map_slices pool ~stage:"reach-sample"
      (fun controls ->
        Di.integrate_control_batch di ~controls ~x0 ~horizon ~dt)
      controls
    |> Array.to_list |> Array.concat |> Array.to_list
  in
  if Obs.enabled obs then begin
    Obs.count obs "reach.controls" n_controls;
    Obs.span_end
      ~metrics:[ ("controls", float_of_int n_controls) ]
      obs sp
  end;
  out

let hull_2d ?pool ?obs ?dt ?switches ?vertex_bias di ~x0 ~horizon ~n_controls
    rng =
  if di.Di.dim <> 2 then invalid_arg "Reach.hull_2d: system is not 2-D";
  let states =
    sample_states ?pool ?obs ?dt ?switches ?vertex_bias di ~x0 ~horizon
      ~n_controls rng
  in
  Geometry.convex_hull (List.map (fun x -> (x.(0), x.(1))) states)
