open Umf_numerics
module Pool = Umf_runtime.Runtime.Pool
module Obs = Umf_obs.Obs

type objective = [ `Coord of int | `Linear of Vec.t ]

type result = {
  value : float;
  times : float array;
  x : Vec.t array;
  p : Vec.t array;
  control : Vec.t array;
  iterations : int;
  converged : bool;
  opt : [ `Vertices | `Box of int ];
}

let objective_vector di sense obj =
  let c =
    match obj with
    | `Coord i ->
        if i < 0 || i >= di.Di.dim then
          invalid_arg "Pontryagin: coordinate out of range";
        Array.init di.Di.dim (fun j -> if i = j then 1. else 0.)
    | `Linear c ->
        if Vec.dim c <> di.Di.dim then
          invalid_arg "Pontryagin: objective dimension mismatch";
        Vec.copy c
  in
  match sense with `Max -> c | `Min -> Vec.scale (-1.) c

(* The forward and backward sweeps over the compiled drift and Jacobian
   plans, into preallocated buffers.  Forward: RK4 with the control
   frozen per grid interval, [Ode.rk4_step]'s float operations term for
   term.  Backward: the costate ṗ = −(∂f/∂x)ᵀ p integrated from T to 0
   by RK4 in reversed time, so each stage is +(∂f/∂x)ᵀ p, formed
   straight from the row-major Jacobian buffer ([Mat.tmulv]'s sum) at
   the state interpolated across the interval.  [xs] and [ps] must hold
   distinct vectors, which the sweeps overwrite. *)
let sweeps ~d plan jac_plan =
  let k1 = Vec.zeros d and k2 = Vec.zeros d and k3 = Vec.zeros d
  and k4 = Vec.zeros d and tmp = Vec.zeros d and x = Vec.zeros d
  and jac = Vec.zeros (d * d) in
  (* tmp := a * k + y *)
  let axpy a k y =
    for j = 0 to d - 1 do
      tmp.(j) <- (a *. k.(j)) +. y.(j)
    done
  in
  (* into := y + (h/6)(k1 + 2 k2 + 2 k3 + k4) *)
  let combine h y into =
    for j = 0 to d - 1 do
      into.(j) <-
        y.(j)
        +. ((h /. 6.) *. (k1.(j) +. (2. *. k2.(j)) +. (2. *. k3.(j)) +. k4.(j)))
    done
  in
  let forward ~x0 ~h ~control xs =
    Vec.blit x0 ~into:xs.(0);
    for i = 0 to Array.length control - 1 do
      let th = control.(i) and y = xs.(i) in
      Tape.Plan.run plan ~x:y ~th ~out:k1;
      axpy (h /. 2.) k1 y;
      Tape.Plan.run plan ~x:tmp ~th ~out:k2;
      axpy (h /. 2.) k2 y;
      Tape.Plan.run plan ~x:tmp ~th ~out:k3;
      axpy h k3 y;
      Tape.Plan.run plan ~x:tmp ~th ~out:k4;
      combine h y xs.(i + 1)
    done
  in
  (* out := (∂f/∂x)ᵀ p at the state lerp x_hi x_lo s *)
  let costate ~x_hi ~x_lo ~th s p out =
    for j = 0 to d - 1 do
      x.(j) <- ((1. -. s) *. x_hi.(j)) +. (s *. x_lo.(j))
    done;
    Tape.Plan.run jac_plan ~x ~th ~out:jac;
    for j = 0 to d - 1 do
      let acc = ref 0. in
      for i = 0 to d - 1 do
        acc := !acc +. (jac.((i * d) + j) *. p.(i))
      done;
      out.(j) <- !acc
    done
  in
  let backward ~c ~h ~control xs ps =
    let k = Array.length control in
    Vec.blit c ~into:ps.(k);
    for i = k - 1 downto 0 do
      let th = control.(i) and x_lo = xs.(i) and x_hi = xs.(i + 1) in
      let p = ps.(i + 1) in
      costate ~x_hi ~x_lo ~th 0. p k1;
      axpy (h /. 2.) k1 p;
      costate ~x_hi ~x_lo ~th 0.5 tmp k2;
      axpy (h /. 2.) k2 p;
      costate ~x_hi ~x_lo ~th 0.5 tmp k3;
      axpy h k3 p;
      costate ~x_hi ~x_lo ~th 1. tmp k4;
      combine h p ps.(i)
    done
  in
  (forward, backward)

let solve ?(steps = 400) ?(max_iter = 200) ?(tol = 1e-4) ?(relax = 0.5)
    ?(opt = `Vertices) ?(check = false) ?(obs = Obs.off) di ~x0 ~horizon
    ~sense obj =
  if horizon <= 0. then invalid_arg "Pontryagin.solve: need horizon > 0";
  if steps < 1 then invalid_arg "Pontryagin.solve: need steps >= 1";
  if Vec.dim x0 <> di.Di.dim then invalid_arg "Pontryagin.solve: x0 dimension";
  let on = Obs.enabled obs in
  let sp = Obs.span_begin obs "pontryagin.solve" in
  let c = objective_vector di sense obj in
  let h = horizon /. float_of_int steps in
  let times = Array.init (steps + 1) (fun i -> float_of_int i *. h) in
  let mid = Optim.Box.midpoint di.Di.theta in
  let control = Array.init steps (fun _ -> Vec.copy mid) in
  let xs = Array.init (steps + 1) (fun _ -> Vec.zeros di.Di.dim) in
  let ps = Array.init (steps + 1) (fun _ -> Vec.zeros di.Di.dim) in
  let forward, backward = sweeps ~d:di.Di.dim di.Di.plan di.Di.jac_plan in
  (* each update_control call evaluates the Hamiltonian arg max once
     per grid interval *)
  let update_calls = ref 0 in
  let update_control =
    match opt with
    | `Vertices ->
        (* vertex enumeration: evaluate the drift at every (interval
           midpoint, Θ-vertex) pair in ONE batched sweep per call, then
           replay [Optim.argmax_vertices]'s keep-first fold per
           interval.  H = f·p sums each batched drift row against p in
           place, in [Vec.dot]'s order, so each interval's arg max is
           bitwise the scalar [Di.argmax_hamiltonian]; the midpoints
           and the relaxed control are [Vec.lerp]'s arithmetic, written
           in place. *)
        let d = di.Di.dim in
        let verts = Array.of_list (Optim.Box.vertices di.Di.theta) in
        let nv = Array.length verts in
        let rows = steps * nv in
        let thd = Optim.Box.dim di.Di.theta in
        let ths = Mat.zeros rows (Stdlib.max 1 thd) in
        for i = 0 to steps - 1 do
          for v = 0 to nv - 1 do
            for j = 0 to Vec.dim verts.(v) - 1 do
              Mat.set ths ((i * nv) + v) j verts.(v).(j)
            done
          done
        done;
        let xs_mat = Mat.zeros rows d in
        let fout = Mat.zeros rows d in
        let xd = Mat.data xs_mat and fd = Mat.data fout in
        let p = Vec.zeros d in
        (* [Vec.lerp a b 0.5] at coordinate j (1 - 0.5 is exactly 0.5) *)
        let midpoint a b j = (0.5 *. a.(j)) +. (0.5 *. b.(j)) in
        fun ~relax ->
          incr update_calls;
          for i = 0 to steps - 1 do
            for j = 0 to d - 1 do
              let x = midpoint xs.(i) xs.(i + 1) j in
              for v = 0 to nv - 1 do
                xd.((((i * nv) + v) * d) + j) <- x
              done
            done
          done;
          Tape.Plan.run_batch di.Di.plan ~xs:xs_mat ~ths ~out:fout;
          for i = 0 to steps - 1 do
            for j = 0 to d - 1 do
              p.(j) <- midpoint ps.(i) ps.(i + 1) j
            done;
            let best = ref (-1) and best_h = ref Float.nan in
            for v = 0 to nv - 1 do
              let r = ((i * nv) + v) * d in
              let hx = ref 0. in
              for j = 0 to d - 1 do
                hx := !hx +. (fd.(r + j) *. p.(j))
              done;
              if !best < 0 || not (!best_h >= !hx) then begin
                best := v;
                best_h := !hx
              end
            done;
            let star = verts.(!best) and ci = control.(i) in
            for j = 0 to Vec.dim ci - 1 do
              ci.(j) <- ((1. -. relax) *. ci.(j)) +. (relax *. star.(j))
            done
          done
    | `Box _ ->
        (* a grid-and-descent search per interval, for drifts not
           affine in θ *)
        fun ~relax ->
          incr update_calls;
          for i = 0 to steps - 1 do
            (* evaluate at the interval midpoint state/costate *)
            let x = Vec.lerp xs.(i) xs.(i + 1) 0.5 in
            let p = Vec.lerp ps.(i) ps.(i + 1) 0.5 in
            let star = Di.argmax_hamiltonian ~opt di ~x ~p in
            control.(i) <- Vec.lerp control.(i) star relax
          done
  in
  let value () = Vec.dot c xs.(steps) in
  let iterations = ref 0 and converged = ref false in
  (* Near the optimal bang-bang switch the control cell chatters across
     sweeps: the value enters a small limit cycle whose amplitude is the
     grid-discretisation precision.  We therefore (a) remember the best
     control seen and (b) declare convergence when the value oscillation
     over a window of sweeps falls below [tol]. *)
  let window = Array.make 10 Float.nan in
  let best_value = ref Float.neg_infinity in
  let best_control = Array.map Vec.copy control in
  while (not !converged) && !iterations < max_iter do
    incr iterations;
    forward ~x0 ~h ~control xs;
    let v = value () in
    if check && not (Float.is_finite v) then
      failwith
        (Printf.sprintf
           "Pontryagin.solve: non-finite objective (%g) at sweep %d" v
           !iterations);
    if v > !best_value then begin
      best_value := v;
      Array.iteri (fun i ci -> Vec.blit ci ~into:best_control.(i)) control
    end;
    window.((!iterations - 1) mod Array.length window) <- v;
    if !iterations >= Array.length window then begin
      let wmin = Array.fold_left Float.min Float.infinity window in
      let wmax = Array.fold_left Float.max Float.neg_infinity window in
      if wmax -. wmin <= tol *. Float.max 1. (Float.abs v) then
        converged := true
    end;
    backward ~c ~h ~control xs ps;
    update_control ~relax
  done;
  Array.iteri (fun i bi -> Vec.blit bi ~into:control.(i)) best_control;
  forward ~x0 ~h ~control xs;
  backward ~c ~h ~control xs ps;
  (* snap to the pure bang-bang argmax control; keep the snap unless it
     loses more than the discretisation tolerance *)
  update_control ~relax:1.0;
  forward ~x0 ~h ~control xs;
  if value () < !best_value -. (tol *. Float.max 1. (Float.abs !best_value))
  then begin
    Array.iteri (fun i bi -> Vec.blit bi ~into:control.(i)) best_control;
    forward ~x0 ~h ~control xs
  end;
  backward ~c ~h ~control xs ps;
  let signed = value () in
  let value = match sense with `Max -> signed | `Min -> -.signed in
  if on then begin
    (* bang-bang switch count: grid cells where the control changes *)
    let switches = ref 0 in
    for i = 1 to steps - 1 do
      if Vec.norm_inf (Vec.sub control.(i) control.(i - 1)) > 1e-9 then
        incr switches
    done;
    Obs.count obs "pontryagin.sweeps" !iterations;
    Obs.count obs "pontryagin.hamiltonian_evals" (steps * !update_calls);
    if not !converged then Obs.count obs "pontryagin.nonconverged" 1;
    Obs.gauge obs "pontryagin.switches" (float_of_int !switches);
    Obs.span_end
      ~metrics:
        [
          ("sweeps", float_of_int !iterations);
          ("switches", float_of_int !switches);
          ("converged", if !converged then 1. else 0.);
        ]
      obs sp
  end;
  { value; times; x = xs; p = ps; control; iterations = !iterations;
    converged = !converged; opt }

let bound_series ?pool ?steps ?max_iter ?tol ?relax ?opt ?check ?obs di ~x0
    ~coord ~times =
  let sp =
    match obs with
    | Some o -> Obs.span_begin o "pontryagin.bound_series"
    | None -> Obs.null_span
  in
  let at t =
    if t <= 0. then (x0.(coord), x0.(coord))
    else begin
      let lo =
        (solve ?steps ?max_iter ?tol ?relax ?opt ?check ?obs di ~x0 ~horizon:t
           ~sense:`Min (`Coord coord))
          .value
      in
      let hi =
        (solve ?steps ?max_iter ?tol ?relax ?opt ?check ?obs di ~x0 ~horizon:t
           ~sense:`Max (`Coord coord))
          .value
      in
      (lo, hi)
    end
  in
  let out =
    match pool with
    | Some p -> Pool.parallel_map ~stage:"pontryagin-series" p at times
    | None -> Array.map at times
  in
  (match obs with
  | Some o ->
      Obs.span_end
        ~metrics:[ ("horizons", float_of_int (Array.length times)) ]
        o sp
  | None -> ());
  out

let pp_result ppf r =
  let strategy =
    match r.opt with
    | `Vertices -> "vertices"
    | `Box g -> Printf.sprintf "box:%d" g
  in
  Format.fprintf ppf
    "@[pontryagin: value %.6g, %d iteration%s, %s, opt %s@]" r.value
    r.iterations
    (if r.iterations = 1 then "" else "s")
    (if r.converged then "converged" else "NOT converged")
    strategy

let result_to_string r = Format.asprintf "%a" pp_result r

let switch_times ?min_dwell result ~coord =
  let k = Array.length result.control in
  if k = 0 then []
  else begin
    let h = result.times.(1) -. result.times.(0) in
    let min_dwell = match min_dwell with Some d -> d | None -> 5. *. h in
    (* segment the control into maximal constant runs, scanning
       backwards so the list comes out in time order *)
    let segments = ref [] in
    for i = k - 1 downto 0 do
      let v = result.control.(i).(coord) in
      match !segments with
      | (v0, _start, stop) :: rest when Float.abs (v0 -. v) <= 1e-9 ->
          segments := (v0, i, stop) :: rest
      | _ -> segments := (v, i, i + 1) :: !segments
    done;
    (* absorb runs shorter than the dwell threshold (chattering cells
       around the true switch) into their predecessor, re-merging equal
       neighbours as they appear *)
    let merged =
      List.fold_left
        (fun acc (v, start, stop) ->
          let dwell = float_of_int (stop - start) *. h in
          match acc with
          | (v0, s0, _) :: rest when dwell < min_dwell ->
              (v0, s0, stop) :: rest
          | (v0, s0, _) :: rest when Float.abs (v0 -. v) <= 1e-9 ->
              (v0, s0, stop) :: rest
          | _ -> (v, start, stop) :: acc)
        [] !segments
      |> List.rev
    in
    (* a short leading run has no predecessor: absorb it forwards *)
    let merged =
      match merged with
      | (_, s0, stop0) :: (v1, _, stop1) :: rest
        when float_of_int (stop0 - s0) *. h < min_dwell ->
          (v1, s0, stop1) :: rest
      | other -> other
    in
    let rec boundaries = function
      | (_, _, stop) :: ((_, _, _) :: _ as rest) ->
          result.times.(stop) :: boundaries rest
      | _ -> []
    in
    boundaries merged
  end
