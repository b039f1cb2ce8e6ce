let invphi = (sqrt 5. -. 1.) /. 2.

let golden_section_min ?(tol = 1e-8) ?(max_iter = 200) f a b =
  let a = ref a and b = ref b in
  let c = ref (!b -. (invphi *. (!b -. !a))) in
  let d = ref (!a +. (invphi *. (!b -. !a))) in
  let fc = ref (f !c) and fd = ref (f !d) in
  let iter = ref 0 in
  while !b -. !a > tol && !iter < max_iter do
    incr iter;
    if !fc < !fd then begin
      b := !d;
      d := !c;
      fd := !fc;
      c := !b -. (invphi *. (!b -. !a));
      fc := f !c
    end
    else begin
      a := !c;
      c := !d;
      fc := !fd;
      d := !a +. (invphi *. (!b -. !a));
      fd := f !d
    end
  done;
  let x = 0.5 *. (!a +. !b) in
  (x, f x)

module Box = struct
  type t = { lo : Vec.t; hi : Vec.t }

  let make lo hi =
    if Vec.dim lo <> Vec.dim hi then invalid_arg "Box.make: dimension mismatch";
    if not (Vec.le lo hi) then invalid_arg "Box.make: lo > hi";
    { lo = Vec.copy lo; hi = Vec.copy hi }

  let of_intervals ivs =
    let lo = Array.of_list (List.map Interval.lo ivs) in
    let hi = Array.of_list (List.map Interval.hi ivs) in
    make lo hi

  let dim b = Vec.dim b.lo

  let mem x b = Vec.le b.lo x && Vec.le x b.hi

  let midpoint b = Vec.lerp b.lo b.hi 0.5

  let vertices b =
    let n = dim b in
    let rec build i acc =
      if i = n then [ Array.of_list (List.rev acc) ]
      else if b.lo.(i) = b.hi.(i) then build (i + 1) (b.lo.(i) :: acc)
      else build (i + 1) (b.lo.(i) :: acc) @ build (i + 1) (b.hi.(i) :: acc)
    in
    build 0 []

  let sample_grid b k =
    if k < 1 then invalid_arg "Box.sample_grid: need k >= 1";
    let n = dim b in
    let axis i =
      if b.lo.(i) = b.hi.(i) || k = 1 then [| Interval.clamp (Interval.make b.lo.(i) b.hi.(i)) (0.5 *. (b.lo.(i) +. b.hi.(i))) |]
      else Vec.linspace b.lo.(i) b.hi.(i) k
    in
    let axes = Array.init n axis in
    let rec build i acc =
      if i = n then [ Array.of_list (List.rev acc) ]
      else
        Array.to_list axes.(i)
        |> List.concat_map (fun v -> build (i + 1) (v :: acc))
    in
    build 0 []

  let max_grid_points = 4096

  let check_grid ~who b k =
    (* count what [sample_grid b k] would build, without building it: a
       degenerate axis (or k = 1) holds one point *)
    let points = ref 1. in
    Array.iteri
      (fun i lo ->
        if lo <> b.hi.(i) && k > 1 then points := !points *. float_of_int k)
      b.lo;
    if !points > float_of_int max_grid_points then
      invalid_arg
        (Printf.sprintf
           "%s: an uncertain grid of %d per axis has %g points, over the \
            limit of %d"
           who k !points max_grid_points)

  let sample_uniform rng b =
    Array.init (dim b) (fun i -> Rng.float_range rng b.lo.(i) b.hi.(i))

  let clamp b x = Vec.clamp ~lo:b.lo ~hi:b.hi x
end

(* shrinking coordinate descent inside a box, starting from x0 *)
let coordinate_refine f (box : Box.t) x0 iters =
  let n = Box.dim box in
  let x = ref (Vec.copy x0) in
  let fx = ref (f !x) in
  let radius = ref 0.25 in
  for _ = 1 to iters do
    for i = 0 to n - 1 do
      let span = box.hi.(i) -. box.lo.(i) in
      if span > 0. then begin
        let step = !radius *. span in
        let try_at v =
          if v >= box.lo.(i) -. 1e-15 && v <= box.hi.(i) +. 1e-15 then begin
            let cand = Vec.copy !x in
            cand.(i) <- Float.min box.hi.(i) (Float.max box.lo.(i) v);
            let fc = f cand in
            if fc < !fx then begin
              x := cand;
              fx := fc
            end
          end
        in
        try_at (!x.(i) +. step);
        try_at (!x.(i) -. step)
      end
    done;
    radius := !radius *. 0.7
  done;
  (!x, !fx)

let minimize_box ?(grid = 3) ?(refine_iters = 40) f box =
  let candidates = Box.vertices box @ Box.sample_grid box grid in
  let best =
    List.fold_left
      (fun acc x ->
        let fx = f x in
        match acc with
        | Some (_, fb) when fb <= fx -> acc
        | _ -> Some (x, fx))
      None candidates
  in
  match best with
  | None -> invalid_arg "Optim.minimize_box: empty box"
  | Some (x, _) -> coordinate_refine f box x refine_iters

let maximize_box ?grid ?refine_iters f box =
  let x, fneg = minimize_box ?grid ?refine_iters (fun v -> -.f v) box in
  (x, -.fneg)

let argmax_vertices f box =
  let best =
    List.fold_left
      (fun acc x ->
        let fx = f x in
        match acc with
        | Some (_, fb) when fb >= fx -> acc
        | _ -> Some (x, fx))
      None (Box.vertices box)
  in
  match best with
  | None -> invalid_arg "Optim.argmax_vertices: empty box"
  | Some r -> r
