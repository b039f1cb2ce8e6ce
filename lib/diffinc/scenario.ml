open Umf_numerics
module Obs = Umf_obs.Obs

type t =
  | Uncertain
  | Piecewise of int
  | Deterministic of (float -> Vec.t)
  | RateLimited of float
  | Imprecise

let integrate_piecewise di ~dt ~x0 ~horizon pieces =
  let k = Array.length pieces in
  let control t _x =
    let i =
      Stdlib.min (k - 1)
        (int_of_float (Float.floor (t /. horizon *. float_of_int k)))
    in
    pieces.(Stdlib.max 0 i)
  in
  Ode.Traj.last (Di.integrate_control di ~control ~x0 ~horizon ~dt)

(* coordinate ascent [refine] from three constant controls — the box
   midpoint and its two corners over all [slots] — keeping the best *)
let best_of_starts ~better di ~slots refine =
  let box = di.Di.theta in
  let run c = refine (Array.init slots (fun _ -> Vec.copy c)) in
  List.fold_left
    (fun b c ->
      let v = run c in
      if better v b then v else b)
    (run (Optim.Box.midpoint box))
    [ box.Optim.Box.lo; box.Optim.Box.hi ]

let piecewise_extremum ?(obs = Obs.off) ~grid ~dt di ~x0 ~coord ~horizon ~k
    sense =
  let better a b = match sense with `Max -> a > b | `Min -> a < b in
  let axis_values =
    (* per θ-axis candidate values *)
    Array.init (Optim.Box.dim di.Di.theta) (fun i ->
        let lo = di.Di.theta.Optim.Box.lo.(i)
        and hi = di.Di.theta.Optim.Box.hi.(i) in
        if lo = hi then [| lo |] else Vec.linspace lo hi grid)
  in
  let m = Optim.Box.dim di.Di.theta in
  let value pieces =
    (* one integration per candidate: the search's cancellation point *)
    Obs.checkpoint obs;
    (integrate_piecewise di ~dt ~x0 ~horizon pieces).(coord)
  in
  (* number of exhaustive combinations: (grid^m)^k, in floats so a
     large k cannot overflow into a small count *)
  let combos_per_piece =
    Array.fold_left (fun acc vs -> acc *. float_of_int (Array.length vs)) 1.
      axis_values
  in
  let total = combos_per_piece ** float_of_int k in
  let enumerate_piece_values () =
    (* all θ vectors on the grid *)
    let rec build i acc =
      if i = m then [ Array.of_list (List.rev acc) ]
      else
        Array.to_list axis_values.(i)
        |> List.concat_map (fun v -> build (i + 1) (v :: acc))
    in
    Array.of_list (build 0 [])
  in
  let piece_values = enumerate_piece_values () in
  if total <= 4096. then begin
    (* exhaustive search over all piecewise grid controls *)
    let best = ref None in
    let rec go i pieces =
      if i = k then begin
        let v = value (Array.of_list (List.rev pieces)) in
        match !best with
        | Some b when not (better v b) -> ()
        | _ -> best := Some v
      end
      else
        Array.iter (fun pv -> go (i + 1) (pv :: pieces)) piece_values
    in
    go 0 [];
    match !best with Some v -> v | None -> x0.(coord)
  end
  else begin
    (* coordinate-ascent over pieces from several starts *)
    let refine pieces =
      let pieces = Array.map Vec.copy pieces in
      let current = ref (value pieces) in
      let improved = ref true in
      let sweeps = ref 0 in
      while !improved && !sweeps < 8 do
        incr sweeps;
        improved := false;
        for i = 0 to k - 1 do
          Array.iter
            (fun cand ->
              let saved = pieces.(i) in
              pieces.(i) <- cand;
              let v = value pieces in
              if better v !current then begin
                current := v;
                improved := true
              end
              else pieces.(i) <- saved)
            piece_values
        done
      done;
      !current
    in
    best_of_starts ~better di ~slots:k refine
  end

(* piecewise-linear control through knot values; knots every
   horizon/(n_knots-1), linear interpolation between them *)
let integrate_knots di ~dt ~x0 ~horizon knots =
  let n = Array.length knots in
  let control t _x =
    let pos = t /. horizon *. float_of_int (n - 1) in
    let j = Stdlib.min (n - 2) (Stdlib.max 0 (int_of_float (Float.floor pos))) in
    let s = Float.min 1. (Float.max 0. (pos -. float_of_int j)) in
    Vec.lerp knots.(j) knots.(j + 1) s
  in
  Ode.Traj.last (Di.integrate_control di ~control ~x0 ~horizon ~dt)

let rate_limited_extremum ~grid ~dt di ~x0 ~coord ~horizon ~rate sense =
  let better a b = match sense with `Max -> a > b | `Min -> a < b in
  let m = Optim.Box.dim di.Di.theta in
  let n_knots = 33 in
  let delta = horizon /. float_of_int (n_knots - 1) in
  let max_step = rate *. delta in
  let value knots = (integrate_knots di ~dt ~x0 ~horizon knots).(coord) in
  let refine start =
    let knots = Array.map Vec.copy start in
    let current = ref (value knots) in
    let improved = ref true in
    let sweeps = ref 0 in
    while !improved && !sweeps < 6 do
      incr sweeps;
      improved := false;
      for j = 0 to n_knots - 1 do
        for axis = 0 to m - 1 do
          (* feasible window for this knot given its neighbours *)
          let lo = ref di.Di.theta.Optim.Box.lo.(axis)
          and hi = ref di.Di.theta.Optim.Box.hi.(axis) in
          if j > 0 then begin
            lo := Float.max !lo (knots.(j - 1).(axis) -. max_step);
            hi := Float.min !hi (knots.(j - 1).(axis) +. max_step)
          end;
          if j < n_knots - 1 then begin
            lo := Float.max !lo (knots.(j + 1).(axis) -. max_step);
            hi := Float.min !hi (knots.(j + 1).(axis) +. max_step)
          end;
          if !hi > !lo +. 1e-12 then begin
            let saved = knots.(j).(axis) in
            Array.iter
              (fun cand ->
                knots.(j).(axis) <- cand;
                let v = value knots in
                if better v !current then begin
                  current := v;
                  improved := true
                end
                else knots.(j).(axis) <- saved)
              (Vec.linspace !lo !hi grid)
          end
        done
      done
    done;
    !current
  in
  best_of_starts ~better di ~slots:n_knots refine

let extremal_coord ?pool ?obs ?(grid = 5) ?steps ?(dt = 1e-2) scenario di ~x0
    ~coord ~horizon =
  if coord < 0 || coord >= di.Di.dim then
    invalid_arg "Scenario.extremal_coord: coordinate out of range";
  match scenario with
  | Uncertain ->
      Uncertain.extremal_coord ?pool ?obs ~dt ~grid di ~x0 ~coord ~horizon
  | Piecewise k ->
      if k < 1 then invalid_arg "Scenario.extremal_coord: need k >= 1";
      ( piecewise_extremum ?obs ~grid ~dt di ~x0 ~coord ~horizon ~k `Min,
        piecewise_extremum ?obs ~grid ~dt di ~x0 ~coord ~horizon ~k `Max )
  | Deterministic control ->
      let final =
        if horizon <= 0. then Vec.copy x0
        else
          Ode.Traj.last
            (Di.integrate_control di
               ~control:(fun t _x -> control t)
               ~x0 ~horizon ~dt)
      in
      (final.(coord), final.(coord))
  | RateLimited rate ->
      if rate < 0. then invalid_arg "Scenario.extremal_coord: negative rate";
      ( rate_limited_extremum ~grid ~dt di ~x0 ~coord ~horizon ~rate `Min,
        rate_limited_extremum ~grid ~dt di ~x0 ~coord ~horizon ~rate `Max )
  | Imprecise ->
      let lo =
        (Pontryagin.solve ?steps ?obs di ~x0 ~horizon ~sense:`Min
           (`Coord coord))
          .Pontryagin.value
      in
      let hi =
        (Pontryagin.solve ?steps ?obs di ~x0 ~horizon ~sense:`Max
           (`Coord coord))
          .Pontryagin.value
      in
      (lo, hi)
