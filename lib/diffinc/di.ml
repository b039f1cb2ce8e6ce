open Umf_numerics
module Obs = Umf_obs.Obs
module Pool = Umf_runtime.Runtime.Pool

type t = {
  dim : int;
  theta : Optim.Box.t;
  drift : Vec.t -> Vec.t -> Vec.t;
  plan : Tape.Plan.t;
  jac_plan : Tape.Plan.t;
}

let of_model (m : Umf_meanfield.Model.t) =
  {
    dim = Umf_meanfield.Model.dim m;
    theta = Umf_meanfield.Model.theta m;
    drift = Umf_meanfield.Model.drift m;
    plan = Umf_meanfield.Model.drift_plan m;
    jac_plan = Umf_meanfield.Model.jac_plan m;
  }

let integrate_constant ?obs di ~theta ~x0 ~horizon ~dt =
  Ode.integrate ?obs (fun _t x -> di.drift x theta) ~t0:0. ~y0:x0 ~t1:horizon
    ~dt

let integrate_control ?obs di ~control ~x0 ~horizon ~dt =
  Ode.integrate ?obs
    (fun t x -> di.drift x (Optim.Box.clamp di.theta (control t x)))
    ~t0:0. ~y0:x0 ~t1:horizon ~dt

(* ---- lockstep batched integration over the compiled drift plan ----

   All lanes share the time grid (it never depends on the state), so a
   whole family of selections advances through one RK4 step at a time
   with the four stage drifts evaluated by [Tape.Plan.run_batch].  The
   per-lane arithmetic below transcribes [Ode.rk4_step] /
   [Ode.integrate] term for term — [axpy_rows] is [Vec.axpy_into],
   [combine_rows] the stage combination, [Float.min dt (t1 - t)] the
   step clamp — and the batch kernel is bit-identical to the scalar
   tape, so every lane's trajectory equals its [integrate_constant] /
   [integrate_control] twin bitwise. *)

(* tmp := (a * k) + y, per entry (= Vec.axpy_into per lane) *)
let axpy_rows a (k : Mat.t) (y : Mat.t) (tmp : Mat.t) =
  let kd = Mat.data k and yd = Mat.data y and td = Mat.data tmp in
  for i = 0 to Array.length td - 1 do
    td.(i) <- (a *. kd.(i)) +. yd.(i)
  done

(* y := y + (h/6)(k1 + 2 k2 + 2 k3 + k4), as [Ode.rk4_step] *)
let combine_rows h (y : Mat.t) k1 k2 k3 k4 =
  let yd = Mat.data y
  and k1d = Mat.data k1
  and k2d = Mat.data k2
  and k3d = Mat.data k3
  and k4d = Mat.data k4 in
  for i = 0 to Array.length yd - 1 do
    yd.(i) <-
      yd.(i)
      +. ((h /. 6.) *. (k1d.(i) +. (2. *. k2d.(i)) +. (2. *. k3d.(i)) +. k4d.(i)))
  done

(* one lockstep RK4 step; [theta_at t xs ths] refreshes the per-lane
   parameter rows at a stage time/state (no-op for constant θ) *)
let lockstep_step plan ~theta_at ~t ~h ~ys ~ths ~tmp ~k1 ~k2 ~k3 ~k4 =
  theta_at t ys ths;
  Tape.Plan.run_batch plan ~xs:ys ~ths ~out:k1;
  axpy_rows (h /. 2.) k1 ys tmp;
  theta_at (t +. (h /. 2.)) tmp ths;
  Tape.Plan.run_batch plan ~xs:tmp ~ths ~out:k2;
  axpy_rows (h /. 2.) k2 ys tmp;
  theta_at (t +. (h /. 2.)) tmp ths;
  Tape.Plan.run_batch plan ~xs:tmp ~ths ~out:k3;
  axpy_rows h k3 ys tmp;
  theta_at (t +. h) tmp ths;
  Tape.Plan.run_batch plan ~xs:tmp ~ths ~out:k4;
  combine_rows h ys k1 k2 k3 k4

let check_grid ~horizon ~dt =
  if horizon < 0. then invalid_arg "Ode: t1 < t0";
  if dt <= 0. then invalid_arg "Ode: dt <= 0"

(* drive one lane per start state in [x0s] (at least one) to the
   horizon; [record t ys] sees the shared time grid exactly as
   [Ode.integrate] builds it, the start included, and the lanes' rows,
   which the next step overwrites.  Returns the final rows. *)
let lockstep_run di ~theta_at ~theta_cols ~record ~x0s ~horizon ~dt =
  check_grid ~horizon ~dt;
  let d = di.dim and n = Array.length x0s in
  Array.iter
    (fun x0 -> if Vec.dim x0 <> d then invalid_arg "Di: x0 dimension mismatch")
    x0s;
  let ys = Mat.init n d (fun l j -> x0s.(l).(j)) in
  let ths = Mat.zeros n (Stdlib.max 1 theta_cols) in
  let tmp = Mat.zeros n d
  and k1 = Mat.zeros n d
  and k2 = Mat.zeros n d
  and k3 = Mat.zeros n d
  and k4 = Mat.zeros n d in
  let t = ref 0. in
  record !t ys;
  while !t < horizon -. 1e-12 do
    let h = Float.min dt (horizon -. !t) in
    lockstep_step di.plan ~theta_at ~t:!t ~h ~ys ~ths ~tmp ~k1 ~k2 ~k3 ~k4;
    t := !t +. h;
    record !t ys
  done;
  ys

let theta_width di (thetas : Vec.t array) =
  Array.fold_left (fun w th -> Stdlib.max w (Vec.dim th))
    (Optim.Box.dim di.theta) thetas

(* constant θ: fill the rows once, before the first stage *)
let constant_thetas thetas =
  let primed = ref false in
  fun _t _xs ths ->
    if not !primed then begin
      primed := true;
      Array.iteri
        (fun l th ->
          for j = 0 to Vec.dim th - 1 do
            Mat.set ths l j th.(j)
          done)
        thetas
    end

let constant_lanes di ~obs ~(thetas : Vec.t array) ~x0s ~horizon ~dt record =
  let n = Array.length thetas in
  if Array.length x0s <> n then
    invalid_arg "Di.constant_lanes: thetas and x0s differ in length";
  if n = 0 then invalid_arg "Di.constant_lanes: no lanes";
  let steps = ref (-1) in
  let ys =
    lockstep_run di ~theta_at:(constant_thetas thetas)
      ~theta_cols:(theta_width di thetas)
      ~record:(fun t ys ->
        Obs.checkpoint obs;
        incr steps;
        record t ys)
      ~x0s ~horizon ~dt
  in
  if Obs.enabled obs then Obs.count obs "ode.steps" (n * !steps);
  ys

(* the time grid [Ode.integrate] builds from 0 to [horizon] *)
let grid_times ~horizon ~dt =
  let t = ref 0. and times = ref [ 0. ] in
  while !t < horizon -. 1e-12 do
    t := !t +. Float.min dt (horizon -. !t);
    times := !t :: !times
  done;
  Array.of_list (List.rev !times)

let integrate_constant_lanes di ~obs ~thetas ~x0s ~horizon ~dt =
  check_grid ~horizon ~dt;
  let d = di.dim and n_t = Array.length (grid_times ~horizon ~dt) in
  let out = Array.map (fun _ -> Array.make (n_t * d) 0.) thetas in
  let step = ref 0 in
  ignore
    (constant_lanes di ~obs ~thetas ~x0s ~horizon ~dt (fun _t ys ->
         Array.iteri
           (fun l o -> Array.blit (Mat.data ys) (l * d) o (!step * d) d)
           out;
         incr step));
  out

let integrate_control_batch di ~(controls : (float -> Vec.t -> Vec.t) array)
    ~x0 ~horizon ~dt =
  let n = Array.length controls in
  if n = 0 then [||]
  else begin
    let theta_at t xs ths =
      for l = 0 to n - 1 do
        let th = Optim.Box.clamp di.theta (controls.(l) t (Mat.row xs l)) in
        for j = 0 to Vec.dim th - 1 do
          Mat.set ths l j th.(j)
        done
      done
    in
    let ys =
      lockstep_run di ~theta_at ~theta_cols:(Optim.Box.dim di.theta)
        ~record:(fun _ _ -> ())
        ~x0s:(Array.make n x0) ~horizon ~dt
    in
    Array.init n (Mat.row ys)
  end

(* lanes are independent and each is bitwise its scalar twin, so any
   partition into batches gives the same lanes: a pool maps fixed
   slices over its workers, one pool section per call *)
let slice = 64

let map_slices pool ~stage f lanes =
  match pool with
  | None -> [| f lanes |]
  | Some p ->
      let n = Array.length lanes in
      Pool.parallel_map ~stage p f
        (Array.init ((n + slice - 1) / slice) (fun s ->
             Array.sub lanes (s * slice) (Stdlib.min slice (n - (s * slice)))))

let hamiltonian di ~x ~p theta = Vec.dot (di.drift x theta) p

let argmax_hamiltonian ?(opt = `Vertices) di ~x ~p =
  let h theta = hamiltonian di ~x ~p theta in
  match opt with
  | `Vertices -> fst (Optim.argmax_vertices h di.theta)
  | `Box k -> fst (Optim.maximize_box ~grid:k ~refine_iters:15 h di.theta)
