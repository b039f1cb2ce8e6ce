open Umf_numerics
module Obs = Umf_obs.Obs

type result = {
  polygon : Geometry.point list;
  iterations : int;
  escaped : bool;
}

(* a convex region: its CCW vertices as coordinate arrays *)
let hull_of xs ys =
  let idx = Geometry.convex_hull_indices xs ys in
  (Array.map (fun i -> xs.(i)) idx, Array.map (fun i -> ys.(i)) idx)

(* coordinate [j] of a trajectory's flattened 2-D states *)
let column states j =
  Array.init (Array.length states / 2) (fun s -> states.((2 * s) + j))

let to_list (hx, hy) = List.init (Array.length hx) (fun i -> (hx.(i), hy.(i)))

let compute ?theta_a ?theta_b ?(dt = 1e-2) ?(settle_time = 200.)
    ?(escape_time = 30.) ?(n_boundary = 200) ?(max_rounds = 50) ?(tol = 1e-6)
    ?(check = false) ?(obs = Obs.off) di ~x_start =
  if di.Di.dim <> 2 then invalid_arg "Birkhoff.compute: system is not 2-D";
  if not (Array.for_all Float.is_finite x_start) then
    invalid_arg "Birkhoff.compute: x_start is not finite";
  let on = Obs.enabled obs in
  let sp = Obs.span_begin obs "birkhoff.compute" in
  let theta_a =
    match theta_a with Some t -> t | None -> di.Di.theta.Optim.Box.hi
  in
  let theta_b =
    match theta_b with Some t -> t | None -> di.Di.theta.Optim.Box.lo
  in
  (* one trajectory per (θ, start) lane, its states flattened *)
  let run thetas x0s horizon =
    Di.integrate_constant_lanes di ~obs ~thetas ~x0s ~horizon ~dt
  in
  let final states = Array.sub states (Array.length states - 2) 2 in
  (* seed region: heteroclinic loop between the two extreme dynamics *)
  let x0 = final (run [| theta_a |] [| x_start |] settle_time).(0) in
  let t1 = (run [| theta_b |] [| x0 |] settle_time).(0) in
  let t2 = (run [| theta_a |] [| final t1 |] settle_time).(0) in
  let hull =
    let coord j = Array.concat [ [| x0.(j) |]; column t1 j; column t2 j ] in
    ref (hull_of (coord 0) (coord 1))
  in
  let theta_vertices = Optim.Box.vertices di.Di.theta in
  (* worst outward drift at a boundary point with outward normal nrm *)
  let outward_escape x (nx, ny) =
    List.fold_left
      (fun best theta ->
        let f = di.Di.drift x theta in
        let out = (f.(0) *. nx) +. (f.(1) *. ny) in
        match best with
        | Some (b, _) when b >= out -> best
        | _ -> Some (out, theta))
      None theta_vertices
  in
  let rounds = ref 0 in
  let growing = ref true in
  let outward_left = ref false in
  while !growing && !rounds < max_rounds do
    incr rounds;
    (* test resampled boundary points against their edge normals *)
    let poly = to_list !hull in
    let boundary = Geometry.resample_boundary poly n_boundary in
    let edge_normals = Array.of_list (Geometry.edge_midpoints poly) in
    let mxs = Array.map (fun ((mx, _), _) -> mx) edge_normals
    and mys = Array.map (fun ((_, my), _) -> my) edge_normals in
    let all_finite =
      Array.for_all Float.is_finite mxs && Array.for_all Float.is_finite mys
    in
    let prev = ref (-1) in
    let normal_for (px, py) =
      (* use the normal of the nearest edge midpoint, the first of equal
         ones.  [Float.hypot] ignores the signs of its arguments and is
         at least the larger one (up to an ulp), so a midpoint further
         than [limit] along either axis, by a relative 2^-50, is further
         than [limit]: its distance is not taken.  [limit] is the best
         distance so far; when no distance can be NaN it starts at the
         distance to the previous boundary point's nearest midpoint,
         which is close by *)
      let dist k = Float.hypot (mxs.(k) -. px) (mys.(k) -. py) in
      let best = ref (-1) and bd = ref Float.nan in
      let seeded =
        all_finite && Float.is_finite px && Float.is_finite py && !prev >= 0
      in
      let limit = ref (if seeded then dist !prev else Float.nan) in
      for k = 0 to Array.length mxs - 1 do
        let dx = Float.abs (mxs.(k) -. px) and dy = Float.abs (mys.(k) -. py) in
        let far = !limit *. (1. +. 0x1p-50) in
        (* [Float.max dx dy > far], NaN-propagating, without the call *)
        if not ((dx > far && dy = dy) || (dy > far && dx = dx)) then begin
          let d = Float.hypot dx dy in
          if !best < 0 || not (!bd <= d) then begin
            best := k;
            bd := d;
            if not (!limit <= d) then limit := d
          end
        end
      done;
      prev := !best;
      if !best < 0 then (0., 0.) else snd edge_normals.(!best)
    in
    (* the escaping boundary points, latest first, with the parameter
       that pushes each outward *)
    let escapes =
      List.fold_left
        (fun acc ((px, py) as p) ->
          let x = [| px; py |] in
          match outward_escape x (normal_for p) with
          | Some (out, theta) when out > tol -> (x, theta) :: acc
          | Some _ | None -> acc)
        [] boundary
      |> Array.of_list
    in
    outward_left := Array.length escapes > 0;
    if !outward_left then begin
      (* grow by every escape trajectory, integrated in lockstep; only
         the current hull vertices matter for the next hull *)
      let lanes =
        Array.to_list
          (run (Array.map snd escapes) (Array.map fst escapes) escape_time)
      in
      let hx, hy = !hull in
      let coord j h =
        Array.append (Array.concat (List.map (fun l -> column l j) lanes)) h
      in
      let xs = coord 0 hx and ys = coord 1 hy in
      let before = Geometry.polygon_area poly in
      hull := hull_of xs ys;
      let after = Geometry.polygon_area (to_list !hull) in
      if check && not (Float.is_finite after) then
        failwith
          (Printf.sprintf
             "Birkhoff.compute: non-finite region area at round %d" !rounds);
      if on then Obs.gauge obs "birkhoff.area" after;
      (* stop growing once escapes no longer enlarge the region: the
         outward drift then only traces chords of a non-convex set
         already inside the hull *)
      if after -. before <= 1e-5 *. Float.max 1e-6 before then
        growing := false
    end
    else growing := false
  done;
  (* dense trajectory points make hulls with tens of thousands of
     vertices; simplify to keep downstream membership tests cheap *)
  let max_vertices = 256 in
  let polygon =
    let poly = to_list !hull in
    if List.length poly > max_vertices then
      Geometry.convex_hull (Geometry.resample_boundary poly max_vertices)
    else poly
  in
  let escaped = !outward_left && !rounds >= max_rounds in
  if on then begin
    let area = Geometry.polygon_area polygon in
    Obs.count obs "birkhoff.iterations" !rounds;
    if escaped then Obs.count obs "birkhoff.nonconverged" 1;
    Obs.gauge obs "birkhoff.area" area;
    Obs.span_end
      ~metrics:
        [
          ("rounds", float_of_int !rounds);
          ("area", area);
          ("converged", if escaped then 0. else 1.);
        ]
      obs sp
  end;
  { polygon; iterations = !rounds; escaped }

let contains ?tol r p =
  Geometry.point_in_convex_polygon ?tol p r.polygon

let area r = Geometry.polygon_area r.polygon

let converged r = not r.escaped

let pp_result ppf r =
  Format.fprintf ppf
    "@[birkhoff: value %.6g (area), %d iteration%s, %s, %d vertices@]" (area r)
    r.iterations
    (if r.iterations = 1 then "" else "s")
    (if converged r then "converged" else "NOT converged")
    (List.length r.polygon)

let result_to_string r = Format.asprintf "%a" pp_result r
