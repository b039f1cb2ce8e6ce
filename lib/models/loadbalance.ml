open Umf_numerics
open Umf_meanfield

type params = { d : int; k_max : int; lambda : Interval.t }

let default_params = { d = 2; k_max = 8; lambda = Interval.make 0.5 0.9 }

let ipow x n =
  let rec go acc n = if n = 0 then acc else go (acc *. x) (n - 1) in
  go 1. n

let x0_empty p = Vec.zeros p.k_max

let make p =
  if p.d < 1 then invalid_arg "Loadbalance: need d >= 1";
  if p.k_max < 1 then invalid_arg "Loadbalance: need k_max >= 1";
  let open Expr in
  let kk = p.k_max in
  let x_at k =
    if k = 0 then const 1.
    else if k > kk then const 0.
    else min_ (const 1.) (max_ (const 0.) (var (k - 1)))
  in
  let unit k =
    let v = Vec.zeros kk in
    v.(k - 1) <- 1.;
    v
  in
  let arrival k =
    (* a job lands on a server with exactly k-1 jobs *)
    theta 0 *: max_ (const 0.) (pow (x_at (k - 1)) p.d -: pow (x_at k) p.d)
  in
  let departure k = max_ (const 0.) (x_at k -: x_at (k + 1)) in
  let transitions =
    List.concat_map
      (fun k ->
        [
          {
            Model.name = Printf.sprintf "arrive-%d" k;
            change = unit k;
            rate = arrival k;
          };
          {
            Model.name = Printf.sprintf "depart-%d" k;
            change = Vec.scale (-1.) (unit k);
            rate = departure k;
          };
        ])
      (List.init kk (fun i -> i + 1))
  in
  Model.make
    ~name:(Printf.sprintf "jsq-%d" p.d)
    ~var_names:(Array.init kk (fun i -> Printf.sprintf "x%d" (i + 1)))
    ~theta_names:[| "lambda" |]
    ~theta:(Optim.Box.of_intervals [ p.lambda ])
    ~x0:(x0_empty p) transitions

let di p = Umf_diffinc.Di.of_model (make p)

let fixed_point p ~lambda =
  if lambda >= 1. then invalid_arg "Loadbalance.fixed_point: need lambda < 1";
  Array.init p.k_max (fun i ->
      let k = i + 1 in
      if p.d = 1 then ipow lambda k
      else begin
        (* exponent (d^k - 1) / (d - 1) *)
        let e = (ipow (float_of_int p.d) k -. 1.) /. float_of_int (p.d - 1) in
        lambda ** e
      end)

let mean_queue x = Vec.sum x

let tail_monotone x =
  let ok = ref (x.(0) <= 1. +. 1e-9) in
  for i = 1 to Vec.dim x - 1 do
    if x.(i) > x.(i - 1) +. 1e-9 then ok := false
  done;
  !ok && Vec.min_elt x >= -1e-9
