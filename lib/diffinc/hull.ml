open Umf_numerics
module Obs = Umf_obs.Obs

type traj = {
  times : float array;
  lower : Vec.t array;
  upper : Vec.t array;
}

(* All 2d face bounds of one hull step from the plan's interval mode:
   face j < d encloses f_j over {z in [lo, hi] : z_j = lo_j} x Theta and
   keeps its lower end; face j >= d encloses f_(j-d) over
   {z_(j-d) = hi_(j-d)} x Theta and keeps its upper end.  An interval
   enclosure lies beyond the face extremum (up to the round-to-nearest
   of each interval operation), so the hull is an over-approximation by
   construction (Thm. 4). *)
let face_bounds plan ~th ~lo ~hi =
  let d = Vec.dim lo in
  Array.init (2 * d) (fun j ->
      let i = j mod d in
      let v = if j < d then lo.(i) else hi.(i) in
      let x =
        Array.init d (fun k ->
            if k = i then Interval.make v v else Interval.make lo.(k) hi.(k))
      in
      let e = (Tape.Plan.run_interval plan ~x ~th).(i) in
      if j < d then Interval.lo e else Interval.hi e)

let bounds ?(check = false) ?clip ?(obs = Obs.off) di ~x0 ~horizon ~dt =
  if horizon < 0. then invalid_arg "Hull.bounds: negative horizon";
  if dt <= 0. then invalid_arg "Hull.bounds: dt <= 0";
  if Vec.dim x0 <> di.Di.dim then invalid_arg "Hull.bounds: x0 dimension";
  let plan =
    match di.Di.plan with
    | Some p -> p
    | None ->
        invalid_arg "Hull.bounds: the inclusion has no compiled drift plan"
  in
  (* the step count in floats first: a tiny dt must not wrap to one
     step over the whole horizon *)
  let n = Float.ceil (horizon /. dt) in
  if not (n < float_of_int max_int) then
    invalid_arg
      (Printf.sprintf
         "Hull.bounds: %g steps (horizon %g, dt %g) do not fit an int" n
         horizon dt);
  let on = Obs.enabled obs in
  let sp = Obs.span_begin obs "hull.bounds" in
  let d = di.Di.dim in
  let th =
    let b = di.Di.theta in
    Array.mapi (fun j lo -> Interval.make lo b.Optim.Box.hi.(j)) b.Optim.Box.lo
  in
  let face_evals = ref 0 in
  (* hull state z = (lower, upper) of dimension 2d *)
  let rhs _t z =
    let lo = Array.sub z 0 d and hi = Array.sub z d d in
    (* the hull can momentarily invert by integration error; repair *)
    let lo' = Vec.cmin lo hi and hi' = Vec.cmax lo hi in
    if on then face_evals := !face_evals + (2 * d);
    face_bounds plan ~th ~lo:lo' ~hi:hi'
  in
  let clip_state z =
    match clip with
    | None -> z
    | Some box ->
        Array.init (2 * d) (fun j ->
            let i = if j < d then j else j - d in
            Float.min box.Optim.Box.hi.(i) (Float.max box.Optim.Box.lo.(i) z.(j)))
  in
  let z0 = Array.append (Vec.copy x0) (Vec.copy x0) in
  let steps = Stdlib.max 1 (int_of_float n) in
  let h = if horizon > 0. then horizon /. float_of_int steps else 0. in
  let times = Array.make (steps + 1) 0. in
  let lower = Array.make (steps + 1) (Vec.copy x0) in
  let upper = Array.make (steps + 1) (Vec.copy x0) in
  let check_state i z =
    if check then
      Array.iteri
        (fun j v ->
          if not (Float.is_finite v) then
            failwith
              (Printf.sprintf
                 "Hull.bounds: non-finite %s bound (coordinate %d = %g) at t \
                  = %g, step %d"
                 (if j < d then "lower" else "upper")
                 (j mod d) v
                 (float_of_int i *. h)
                 i))
        z
  in
  let z = ref (clip_state z0) in
  check_state 0 !z;
  for i = 1 to steps do
    z := clip_state (Ode.rk4_step rhs 0. !z h);
    check_state i !z;
    (* enforce the hull ordering after each step *)
    let lo = Array.sub !z 0 d and hi = Array.sub !z d d in
    let lo' = Vec.cmin lo hi and hi' = Vec.cmax lo hi in
    times.(i) <- float_of_int i *. h;
    lower.(i) <- lo';
    upper.(i) <- hi';
    z := Array.append lo' hi'
  done;
  if on then begin
    Obs.count obs "hull.steps" steps;
    Obs.count obs "hull.face_evals" !face_evals;
    let width = Vec.norm_inf (Vec.sub upper.(steps) lower.(steps)) in
    Obs.gauge obs "hull.final_width" width;
    Obs.span_end
      ~metrics:
        [
          ("steps", float_of_int steps);
          ("face_evals", float_of_int !face_evals);
          ("final_width", width);
        ]
      obs sp
  end;
  { times; lower; upper }

let locate times t =
  let n = Array.length times in
  if t <= times.(0) then 0
  else if t >= times.(n - 1) then n - 1
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if times.(mid) <= t then lo := mid else hi := mid
    done;
    !lo
  end

let interp times arr t =
  let n = Array.length times in
  if t <= times.(0) then Vec.copy arr.(0)
  else if t >= times.(n - 1) then Vec.copy arr.(n - 1)
  else begin
    let i = locate times t in
    let s = (t -. times.(i)) /. (times.(i + 1) -. times.(i)) in
    Vec.lerp arr.(i) arr.(i + 1) s
  end

let lower_at h t = interp h.times h.lower t

let upper_at h t = interp h.times h.upper t

let contains ?(tol = 1e-6) h t x =
  let slack = Vec.create (Vec.dim x) tol in
  Vec.le (Vec.sub (lower_at h t) slack) x
  && Vec.le x (Vec.add (upper_at h t) slack)

let final_width h =
  let n = Array.length h.times in
  Vec.sub h.upper.(n - 1) h.lower.(n - 1)

let pp_traj ppf h =
  let n = Array.length h.times in
  let width = final_width h in
  Format.fprintf ppf
    "@[hull: value %.6g (max final width), %d iteration%s, horizon %g, dim %d@]"
    (Vec.norm_inf width) (n - 1)
    (if n - 1 = 1 then "" else "s")
    h.times.(n - 1) (Vec.dim h.lower.(0))

let traj_to_string h = Format.asprintf "%a" pp_traj h

let final_certs ?(rounding = 0.) tr =
  let last = Array.length tr.times - 1 in
  Array.init
    (Vec.dim tr.lower.(last))
    (fun i ->
      Cert.widen ~rounding
        (Cert.of_interval
           (Interval.make tr.lower.(last).(i) tr.upper.(last).(i))))
