module Obs = Umf_obs.Obs

type rhs = float -> Vec.t -> Vec.t

module Traj = struct
  type t = { times : float array; states : Vec.t array }

  let of_arrays times states =
    let n = Array.length times in
    if n = 0 then invalid_arg "Traj.of_arrays: empty trajectory";
    if n <> Array.length states then
      invalid_arg "Traj.of_arrays: length mismatch";
    for i = 1 to n - 1 do
      if times.(i) <= times.(i - 1) then
        invalid_arg "Traj.of_arrays: times not strictly increasing"
    done;
    { times; states }

  let length t = Array.length t.times

  let first t = t.states.(0)

  let last t = t.states.(Array.length t.states - 1)

  let t0 t = t.times.(0)

  let t1 t = t.times.(Array.length t.times - 1)

  (* binary search for the last index with times.(i) <= x *)
  let locate t x =
    let n = Array.length t.times in
    if x <= t.times.(0) then 0
    else if x >= t.times.(n - 1) then n - 1
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if t.times.(mid) <= x then lo := mid else hi := mid
      done;
      !lo
    end

  let at t x =
    let n = Array.length t.times in
    if x <= t.times.(0) then Vec.copy t.states.(0)
    else if x >= t.times.(n - 1) then Vec.copy t.states.(n - 1)
    else begin
      let i = locate t x in
      let t_a = t.times.(i) and t_b = t.times.(i + 1) in
      let s = (x -. t_a) /. (t_b -. t_a) in
      Vec.lerp t.states.(i) t.states.(i + 1) s
    end

  let component t i = Array.map (fun st -> st.(i)) t.states

  let map f t = { t with states = Array.map f t.states }

  let sample t times = Array.map (at t) times
end

let euler_step f t y dt = Vec.axpy dt (f t y) y

(* one reused stage buffer: the rhs must return a fresh vector (every
   drift in this library does), never its argument.  Arithmetic is
   kept bit-identical to the earlier allocating formulation: axpy_into
   matches axpy component-wise, and the final combination evaluates
   (dt/6)*(k1 + 2 k2 + 2 k3 + k4) before adding y, exactly as the
   separate incr vector did. *)
let rk4_step f t y dt =
  let tmp = Vec.copy y in
  let k1 = f t y in
  Vec.axpy_into (dt /. 2.) k1 y ~into:tmp;
  let k2 = f (t +. (dt /. 2.)) tmp in
  Vec.axpy_into (dt /. 2.) k2 y ~into:tmp;
  let k3 = f (t +. (dt /. 2.)) tmp in
  Vec.axpy_into dt k3 y ~into:tmp;
  let k4 = f (t +. dt) tmp in
  for i = 0 to Vec.dim y - 1 do
    tmp.(i) <-
      y.(i)
      +. ((dt /. 6.)
         *. (k1.(i) +. (2. *. k2.(i)) +. (2. *. k3.(i)) +. k4.(i)))
  done;
  tmp

let step_fn = function `Euler -> euler_step | `Rk4 -> rk4_step

let check_span t0 t1 dt =
  if t1 < t0 then invalid_arg "Ode: t1 < t0";
  if dt <= 0. then invalid_arg "Ode: dt <= 0"

let all_finite v =
  let ok = ref true in
  for i = 0 to Vec.dim v - 1 do
    if not (Float.is_finite v.(i)) then ok := false
  done;
  !ok

let fail_non_finite ~what ~t ~step v =
  let bad = ref (-1) in
  for i = Vec.dim v - 1 downto 0 do
    if not (Float.is_finite v.(i)) then bad := i
  done;
  failwith
    (Printf.sprintf
       "Ode: non-finite %s (coordinate %d = %g) at t = %g, step %d" what !bad
       v.(!bad) t step)

(* with checking on, the rhs is validated at every stage and the state
   after every accepted step, so the failure points at the first bad
   time rather than at a NaN that has silently spread *)
let checked_rhs ~enabled ~step f =
  if not enabled then f
  else fun t y ->
    let dy = f t y in
    if not (all_finite dy) then fail_non_finite ~what:"right-hand side" ~t ~step:!step dy;
    dy

let check_state ~enabled ~step t y =
  if enabled && not (all_finite y) then
    fail_non_finite ~what:"state" ~t ~step:!step y

let integrate ?(method_ = `Rk4) ?(check = false) ?(obs = Obs.off) f ~t0 ~y0 ~t1
    ~dt =
  check_span t0 t1 dt;
  let sp = Obs.span_begin obs "ode.integrate" in
  let step = step_fn method_ in
  let step_no = ref 0 in
  let f = checked_rhs ~enabled:check ~step:step_no f in
  check_state ~enabled:check ~step:step_no t0 y0;
  let times = ref [ t0 ] and states = ref [ Vec.copy y0 ] in
  let t = ref t0 and y = ref y0 in
  while !t < t1 -. 1e-12 do
    incr step_no;
    let h = Float.min dt (t1 -. !t) in
    y := step f !t !y h;
    t := !t +. h;
    check_state ~enabled:check ~step:step_no !t !y;
    times := !t :: !times;
    states := !y :: !states
  done;
  if Obs.enabled obs then begin
    Obs.count obs "ode.steps" !step_no;
    Obs.span_end ~metrics:[ ("steps", float_of_int !step_no) ] obs sp
  end;
  Traj.of_arrays
    (Array.of_list (List.rev !times))
    (Array.of_list (List.rev !states))

(* Dormand-Prince 5(4) coefficients *)
let dp_c = [| 0.; 0.2; 0.3; 0.8; 8. /. 9.; 1.; 1. |]

let dp_a =
  [|
    [||];
    [| 0.2 |];
    [| 3. /. 40.; 9. /. 40. |];
    [| 44. /. 45.; -56. /. 15.; 32. /. 9. |];
    [| 19372. /. 6561.; -25360. /. 2187.; 64448. /. 6561.; -212. /. 729. |];
    [|
      9017. /. 3168.; -355. /. 33.; 46732. /. 5247.; 49. /. 176.;
      -5103. /. 18656.;
    |];
    [| 35. /. 384.; 0.; 500. /. 1113.; 125. /. 192.; -2187. /. 6784.; 11. /. 84. |];
  |]

let dp_b5 =
  [| 35. /. 384.; 0.; 500. /. 1113.; 125. /. 192.; -2187. /. 6784.; 11. /. 84.; 0. |]

let dp_b4 =
  [|
    5179. /. 57600.; 0.; 7571. /. 16695.; 393. /. 640.; -92097. /. 339200.;
    187. /. 2100.; 1. /. 40.;
  |]

let integrate_adaptive ?err_acc ?(rtol = 1e-6) ?(atol = 1e-9) ?dt0 ?dt_max
    ?(max_steps = 1_000_000) ?(check = false) ?(obs = Obs.off) f ~t0 ~y0 ~t1 =
  if t1 < t0 then invalid_arg "Ode.integrate_adaptive: t1 < t0";
  (* metric accumulators live and are touched only when observing, so
     the disabled path allocates nothing extra *)
  let on = Obs.enabled obs in
  let sp = Obs.span_begin obs "ode.rk45" in
  let accepted = ref 0 and rejected = ref 0 in
  let dt_min_seen = ref Float.infinity and dt_max_seen = ref 0. in
  let span = t1 -. t0 in
  let dt_max = match dt_max with Some h -> h | None -> span in
  let h = ref (match dt0 with Some h -> h | None -> Float.min dt_max (span /. 100.)) in
  if !h <= 0. then h := span;
  let steps = ref 0 in
  let f = checked_rhs ~enabled:check ~step:steps f in
  check_state ~enabled:check ~step:steps t0 y0;
  let times = ref [ t0 ] and states = ref [ Vec.copy y0 ] in
  let t = ref t0 and y = ref y0 in
  let n = Vec.dim y0 in
  let k = Array.make 7 (Vec.zeros n) in
  (* buffers reused across steps: the stage state fed to f (which must
     return a fresh vector) and the 4th-order comparison solution *)
  let acc = Vec.zeros n in
  let y4 = Vec.zeros n in
  if span > 0. then begin
    while !t < t1 -. 1e-12 do
      incr steps;
      if !steps > max_steps then failwith "Ode.integrate_adaptive: too many steps";
      let hh = Float.min !h (t1 -. !t) in
      if hh < 1e-14 *. Float.max 1. (Float.abs !t) then
        failwith "Ode.integrate_adaptive: step size underflow";
      (* build the seven stages *)
      for s = 0 to 6 do
        Vec.blit !y ~into:acc;
        for j = 0 to s - 1 do
          Vec.axpy_in_place (hh *. dp_a.(s).(j)) k.(j) acc
        done;
        k.(s) <- f (!t +. (dp_c.(s) *. hh)) acc
      done;
      let y5 = Vec.copy !y in
      Vec.blit !y ~into:y4;
      for s = 0 to 6 do
        Vec.axpy_in_place (hh *. dp_b5.(s)) k.(s) y5;
        Vec.axpy_in_place (hh *. dp_b4.(s)) k.(s) y4
      done;
      (* scaled error estimate *)
      let err = ref 0. in
      for i = 0 to n - 1 do
        let sc = atol +. (rtol *. Float.max (Float.abs !y.(i)) (Float.abs y5.(i))) in
        let e = (y5.(i) -. y4.(i)) /. sc in
        err := !err +. (e *. e)
      done;
      let err = sqrt (!err /. float_of_int n) in
      if err <= 1. then begin
        (* tolerance accounting: the embedded estimate of this step's
           local error in absolute units, accumulated for the caller's
           certificate (an estimate-level ledger, not a rigorous
           bound) *)
        (match err_acc with
        | Some acc ->
            let sc = ref atol in
            for i = 0 to n - 1 do
              let s = atol +. (rtol *. Float.abs y5.(i)) in
              if s > !sc then sc := s
            done;
            acc := !acc +. (err *. !sc)
        | None -> ());
        t := !t +. hh;
        y := y5;
        check_state ~enabled:check ~step:steps !t !y;
        times := !t :: !times;
        states := !y :: !states;
        if on then begin
          incr accepted;
          if hh < !dt_min_seen then dt_min_seen := hh;
          if hh > !dt_max_seen then dt_max_seen := hh
        end
      end
      else if on then incr rejected;
      let fac = if err = 0. then 5. else 0.9 *. (err ** -0.2) in
      let fac = Float.max 0.2 (Float.min 5. fac) in
      h := Float.min dt_max (hh *. fac)
    done
  end;
  if on then begin
    Obs.count obs "ode.rk45.accepted" !accepted;
    Obs.count obs "ode.rk45.rejected" !rejected;
    if !accepted > 0 then begin
      Obs.gauge obs "ode.rk45.dt_min" !dt_min_seen;
      Obs.gauge obs "ode.rk45.dt_max" !dt_max_seen
    end;
    let metrics =
      [ ("accepted", float_of_int !accepted); ("rejected", float_of_int !rejected) ]
      @
      if !accepted > 0 then
        [ ("dt_min", !dt_min_seen); ("dt_max", !dt_max_seen) ]
      else []
    in
    Obs.span_end ~metrics obs sp
  end;
  Traj.of_arrays
    (Array.of_list (List.rev !times))
    (Array.of_list (List.rev !states))

let integrate_adaptive_cert ?rtol ?atol ?dt0 ?dt_max ?max_steps ?check ?obs f
    ~t0 ~y0 ~t1 =
  let acc = ref 0. in
  let traj =
    integrate_adaptive ~err_acc:acc ?rtol ?atol ?dt0 ?dt_max ?max_steps ?check
      ?obs f ~t0 ~y0 ~t1
  in
  (traj, Cert.widen ~discretisation:!acc (Cert.exact 0.))
