type point = float * float

let cross (ox, oy) (ax, ay) (bx, by) =
  ((ax -. ox) *. (by -. oy)) -. ((ay -. oy) *. (bx -. ox))

let dist (ax, ay) (bx, by) = Float.hypot (bx -. ax) (by -. ay)

(* [Float.compare] without the C call: NaN equals NaN and sorts below
   every other float, 0. equals -0. *)
let[@inline] float_compare (a : float) b =
  if a < b then -1
  else if a > b then 1
  else if a = b then 0
  else Bool.compare (a = a) (b = b)

(* (x, y) lexicographic under [float_compare] *)
let[@inline] compare_points (xs : float array) (ys : float array) i j =
  let c = float_compare xs.(i) xs.(j) in
  if c <> 0 then c else float_compare ys.(i) ys.(j)

(* Indices of the points (xs.(i), ys.(i)) sorted by (x, y) under
   [Float.compare], one per class of equal points.  The recursion
   transcribes [List.sort_uniq]'s merge tree -- the same split sizes,
   the same two- and three-point base cases, and merges that keep the
   left run's point on a tie -- so the surviving point of each class is
   the one [List.sort_uniq compare] keeps on the point list (it matters
   only for 0. against -0. and for NaN payloads). *)
let sort_uniq_indices xs ys =
  let n = Array.length xs in
  let idx = Array.init n Fun.id and tmp = Array.make n 0 in
  (* the kept indices of a base case, written from [lo]; their count *)
  let put1 lo a =
    idx.(lo) <- a;
    1
  in
  let put2 lo a b =
    idx.(lo) <- a;
    idx.(lo + 1) <- b;
    2
  in
  let put3 lo a b c =
    idx.(lo) <- a;
    idx.(lo + 1) <- b;
    idx.(lo + 2) <- c;
    3
  in
  (* sorts idx.(lo) .. idx.(lo + len - 1) in place, leaving the kept
     indices at the front; returns their count *)
  let rec sort lo len =
    let x1 = idx.(lo) and x2 = idx.(lo + 1) in
    if len = 2 then
      let c = compare_points xs ys x1 x2 in
      if c = 0 then put1 lo x1
      else if c < 0 then put2 lo x1 x2
      else put2 lo x2 x1
    else if len = 3 then
      let x3 = idx.(lo + 2) in
      let c = compare_points xs ys x1 x2 in
      if c = 0 then
        let c = compare_points xs ys x2 x3 in
        if c = 0 then put1 lo x2
        else if c < 0 then put2 lo x2 x3
        else put2 lo x3 x2
      else if c < 0 then
        let c = compare_points xs ys x2 x3 in
        if c = 0 then put2 lo x1 x2
        else if c < 0 then put3 lo x1 x2 x3
        else
          let c = compare_points xs ys x1 x3 in
          if c = 0 then put2 lo x1 x2
          else if c < 0 then put3 lo x1 x3 x2
          else put3 lo x3 x1 x2
      else
        let c = compare_points xs ys x1 x3 in
        if c = 0 then put2 lo x2 x1
        else if c < 0 then put3 lo x2 x1 x3
        else
          let c = compare_points xs ys x2 x3 in
          if c = 0 then put2 lo x2 x1
          else if c < 0 then put3 lo x2 x3 x1
          else put3 lo x3 x2 x1
    else begin
      let n1 = len asr 1 in
      let k1 = sort lo n1 and k2 = sort (lo + n1) (len - n1) in
      let ie = lo + k1 and je = lo + n1 + k2 in
      let i = ref lo and j = ref (lo + n1) and k = ref lo in
      while !i < ie && !j < je do
        let a = idx.(!i) and b = idx.(!j) in
        let c = compare_points xs ys a b in
        if c <= 0 then begin
          tmp.(!k) <- a;
          incr i;
          if c = 0 then incr j
        end
        else begin
          tmp.(!k) <- b;
          incr j
        end;
        incr k
      done;
      (* one run is exhausted: the other's tail follows as it is *)
      let rest, stop = if !i < ie then (!i, ie) else (!j, je) in
      Array.blit idx rest tmp !k (stop - rest);
      let kept = !k + (stop - rest) - lo in
      Array.blit tmp lo idx lo kept;
      kept
    end
  in
  if n < 2 then idx else Array.sub idx 0 (sort 0 n)

(* Andrew's monotone chain over the sorted distinct points: [half]
   pushes each point onto a stack after popping every top point that is
   not a strict left turn (non-positive [cross]); the lower and upper
   chains each end with the first point of the other, which is dropped.
   The bottom point is never popped, so with three or more points each
   chain keeps at least two. *)
let convex_hull_indices xs ys =
  if Array.length ys <> Array.length xs then
    invalid_arg "Geometry.convex_hull_indices: xs and ys differ in length";
  let pts = sort_uniq_indices xs ys in
  let m = Array.length pts in
  if m <= 2 then pts
  else begin
    (* the sorted points' coordinates, in order; the chains hold
       positions in that order *)
    let sx = Array.map (fun i -> xs.(i)) pts
    and sy = Array.map (fun i -> ys.(i)) pts in
    (* [cross] on the sorted points at positions o, a and b *)
    let turn o a b =
      ((sx.(a) -. sx.(o)) *. (sy.(b) -. sy.(o)))
      -. ((sy.(a) -. sy.(o)) *. (sx.(b) -. sx.(o)))
    in
    let stack = Array.make m 0 in
    let half position =
      let top = ref 0 in
      for k = 0 to m - 1 do
        let p = position k in
        while !top >= 2 && turn stack.(!top - 2) stack.(!top - 1) p <= 0. do
          decr top
        done;
        stack.(!top) <- p;
        incr top
      done;
      Array.sub stack 0 (!top - 1)
    in
    Array.map
      (fun k -> pts.(k))
      (Array.append (half Fun.id) (half (fun k -> m - 1 - k)))
  end

let convex_hull points =
  let pts = Array.of_list points in
  let xs = Array.map fst pts and ys = Array.map snd pts in
  Array.to_list (Array.map (fun i -> pts.(i)) (convex_hull_indices xs ys))

let polygon_area poly =
  match poly with
  | [] | [ _ ] | [ _; _ ] -> 0.
  | first :: _ ->
      let rec go acc = function
        | (x1, y1) :: ((x2, y2) :: _ as rest) ->
            go (acc +. ((x1 *. y2) -. (x2 *. y1))) rest
        | [ (x1, y1) ] ->
            let x2, y2 = first in
            acc +. ((x1 *. y2) -. (x2 *. y1))
        | [] -> acc
      in
      Float.abs (go 0. poly) /. 2.

let centroid poly =
  match poly with
  | [] -> invalid_arg "Geometry.centroid: empty polygon"
  | _ ->
      let n = float_of_int (List.length poly) in
      let sx = List.fold_left (fun s (x, _) -> s +. x) 0. poly in
      let sy = List.fold_left (fun s (_, y) -> s +. y) 0. poly in
      (sx /. n, sy /. n)

let edges poly =
  match poly with
  | [] | [ _ ] -> []
  | first :: _ ->
      let rec go = function
        | a :: (b :: _ as rest) -> (a, b) :: go rest
        | [ last ] -> [ (last, first) ]
        | [] -> []
      in
      go poly

let point_in_convex_polygon ?(tol = 1e-12) p poly =
  match poly with
  | [] -> false
  | [ q ] -> dist p q <= tol
  | [ a; b ] ->
      (* segment membership: perpendicular distance and projection *)
      let len = dist a b in
      Float.abs (cross a b p) <= tol *. Float.max len 1e-300
      && dist a p +. dist p b <= len +. (2. *. tol)
  | _ ->
      (* [cross a b p / |ab|] is the signed perpendicular distance to
         the edge line, so [tol] is a true distance slack regardless of
         how finely the polygon is subdivided *)
      List.for_all
        (fun (a, b) ->
          let len = dist a b in
          len <= 0. || cross a b p >= -.(tol *. len))
        (edges poly)

let violation_depth p poly =
  match poly with
  | [] -> Float.infinity
  | [ q ] -> dist p q
  | _ ->
      (* max over edges of the outward signed distance; 0 inside *)
      List.fold_left
        (fun worst (a, b) ->
          let len = dist a b in
          if len <= 0. then worst
          else Float.max worst (-.(cross a b p) /. len))
        0. (edges poly)
      |> Float.max 0.

let outward_normal (ax, ay) (bx, by) =
  (* CCW polygon: interior is to the left of each edge, so the outward
     normal is the right-hand normal of the edge direction *)
  let dx = bx -. ax and dy = by -. ay in
  let len = Float.hypot dx dy in
  if len = 0. then (0., 0.) else (dy /. len, -.dx /. len)

let edge_midpoints poly =
  List.map
    (fun ((ax, ay), (bx, by)) ->
      let mid = (0.5 *. (ax +. bx), 0.5 *. (ay +. by)) in
      (mid, outward_normal (ax, ay) (bx, by)))
    (edges poly)

let resample_boundary poly n =
  if n < 1 then invalid_arg "Geometry.resample_boundary: need n >= 1";
  let es = edges poly in
  let perimeter = List.fold_left (fun s (a, b) -> s +. dist a b) 0. es in
  if perimeter = 0. then List.init n (fun _ -> List.hd poly)
  else begin
    let step = perimeter /. float_of_int n in
    let result = ref [] in
    let carried = ref 0. in
    (* walk the boundary emitting a point every [step] of arc length *)
    List.iter
      (fun ((ax, ay), (bx, by)) ->
        let len = dist (ax, ay) (bx, by) in
        if len > 0. then begin
          let pos = ref (step -. !carried) in
          while !pos <= len do
            let s = !pos /. len in
            result := (ax +. (s *. (bx -. ax)), ay +. (s *. (by -. ay))) :: !result;
            pos := !pos +. step
          done;
          carried := len -. (!pos -. step)
        end)
      es;
    let pts = List.rev !result in
    (* rounding can yield n-1 or n+1 points; pad or trim *)
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: tl -> x :: take (k - 1) tl
    in
    let pts = take n pts in
    let missing = n - List.length pts in
    if missing > 0 then pts @ List.init missing (fun _ -> List.hd poly) else pts
  end

let hausdorff a b =
  let directed xs ys =
    List.fold_left
      (fun worst x ->
        let nearest =
          List.fold_left (fun best y -> Float.min best (dist x y)) Float.infinity ys
        in
        Float.max worst nearest)
      0. xs
  in
  match (a, b) with
  | [], [] -> 0.
  | [], _ | _, [] -> Float.infinity
  | _ -> Float.max (directed a b) (directed b a)

let bounding_box = function
  | [] -> invalid_arg "Geometry.bounding_box: empty"
  | (x0, y0) :: rest ->
      List.fold_left
        (fun ((xmin, ymin), (xmax, ymax)) (x, y) ->
          ( (Float.min xmin x, Float.min ymin y),
            (Float.max xmax x, Float.max ymax y) ))
        ((x0, y0), (x0, y0))
        rest
