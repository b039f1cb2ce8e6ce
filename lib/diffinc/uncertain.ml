open Umf_numerics
module Pool = Umf_runtime.Runtime.Pool
module Obs = Umf_obs.Obs

(* one ["uncertain.sweep"] span over the θ grid: [lanes] integrates a
   slice of the grid in lockstep, the slices run on the pool's workers
   when given, and their results come back in grid order *)
let sweep ?pool ~obs ~stage di grid lanes =
  let thetas = Array.of_list (Optim.Box.sample_grid di.Di.theta grid) in
  let sp = Obs.span_begin obs "uncertain.sweep" in
  let out = Di.map_slices pool ~stage lanes thetas in
  if Obs.enabled obs then begin
    Obs.count obs "uncertain.thetas" (Array.length thetas);
    Obs.span_end
      ~metrics:[ ("thetas", float_of_int (Array.length thetas)) ]
      obs sp
  end;
  out

(* The coordinate-wise min/max over the lanes of [thetas] at each
   sample time, folded as the lanes advance so that no lane is ever
   held whole.  Each lane's sample is the state [Ode.Traj.at] takes
   from its trajectory: the start at or before time 0, the final state
   at or past the last grid time, and in between the interpolation
   across the step t_a <= x < t_b from the previous step's rows, in
   [Vec.lerp]'s arithmetic.  Lanes fold in grid order, with
   [Vec.cmin]/[Vec.cmax]'s argument order. *)
let envelope ~obs ~dt di ~x0 ~times ~horizon thetas =
  let d = di.Di.dim and m = Array.length times and n = Array.length thetas in
  let lower = Array.init m (fun _ -> Vec.create d Float.infinity)
  and upper = Array.init m (fun _ -> Vec.create d Float.neg_infinity) in
  let fold i j v =
    lower.(i).(j) <- Float.min lower.(i).(j) v;
    upper.(i).(j) <- Float.max upper.(i).(j) v
  in
  (* sample indices in time order; [next] is the first not yet folded *)
  let order = Array.init m Fun.id in
  Array.stable_sort (fun a b -> Float.compare times.(a) times.(b)) order;
  let next = ref 0 in
  while !next < m && times.(order.(!next)) <= 0. do
    Array.iteri (fold order.(!next)) x0;
    incr next
  done;
  if !next < m then begin
    let prev = Mat.zeros n d and t_prev = ref 0. in
    let pd = Mat.data prev in
    let final =
      Di.constant_lanes di ~obs ~thetas ~x0s:(Array.make n x0) ~horizon ~dt
        (fun t ys ->
          let yd = Mat.data ys in
          while !next < m && times.(order.(!next)) < t do
            let i = order.(!next) in
            let s = (times.(i) -. !t_prev) /. (t -. !t_prev) in
            for l = 0 to n - 1 do
              for j = 0 to d - 1 do
                let r = (l * d) + j in
                fold i j (((1. -. s) *. pd.(r)) +. (s *. yd.(r)))
              done
            done;
            incr next
          done;
          Array.blit yd 0 pd 0 (n * d);
          t_prev := t)
    in
    let fd = Mat.data final in
    while !next < m do
      for l = 0 to n - 1 do
        for j = 0 to d - 1 do
          fold order.(!next) j fd.((l * d) + j)
        done
      done;
      incr next
    done
  end;
  (lower, upper)

let transient_envelope ?pool ?(obs = Obs.off) ?(dt = 1e-2) ?(grid = 21) di ~x0
    ~times =
  let m = Array.length times in
  if m = 0 then invalid_arg "Uncertain.transient_envelope: no sample times";
  if not (Array.for_all Float.is_finite times) then
    invalid_arg "Uncertain.transient_envelope: non-finite sample time";
  if Vec.dim x0 <> di.Di.dim then
    invalid_arg "Uncertain.transient_envelope: x0 dimension";
  let horizon = Array.fold_left Float.max 0. times in
  let slices =
    sweep ?pool ~obs ~stage:"uncertain-sweep" di grid
      (envelope ~obs ~dt di ~x0 ~times ~horizon)
  in
  let lower, upper = slices.(0) in
  for k = 1 to Array.length slices - 1 do
    let lo, hi = slices.(k) in
    for i = 0 to m - 1 do
      lower.(i) <- Vec.cmin lower.(i) lo.(i);
      upper.(i) <- Vec.cmax upper.(i) hi.(i)
    done
  done;
  (lower, upper)

let equilibria ?pool ?(obs = Obs.off) ?(dt = 1e-2) ?(grid = 21)
    ?(settle_time = 200.) di ~x0 =
  sweep ?pool ~obs ~stage:"uncertain-equilibria" di grid (fun thetas ->
      let final =
        Di.constant_lanes di ~obs ~thetas
          ~x0s:(Array.make (Array.length thetas) x0)
          ~horizon:settle_time ~dt
          (fun _ _ -> ())
      in
      Array.init (Array.length thetas) (Mat.row final))
  |> Array.to_list |> Array.concat |> Array.to_list

let extremal_coord ?pool ?obs ?(dt = 1e-2) ?(grid = 21) di ~x0 ~coord ~horizon
    =
  if coord < 0 || coord >= di.Di.dim then
    invalid_arg "Uncertain.extremal_coord: coordinate out of range";
  let lower, upper =
    transient_envelope ?pool ?obs ~dt ~grid di ~x0 ~times:[| horizon |]
  in
  (lower.(0).(coord), upper.(0).(coord))
