open Umf_numerics

type t = { n : int; rows : (int * float) array array; exit : float array }

let make ~n transitions =
  if n <= 0 then invalid_arg "Generator.make: need n > 0";
  let tbl = Array.make n [] in
  List.iter
    (fun (src, dst, rate) ->
      if src < 0 || src >= n || dst < 0 || dst >= n then
        invalid_arg "Generator.make: state out of range";
      if src = dst then invalid_arg "Generator.make: self loop";
      if rate < 0. || Float.is_nan rate then
        invalid_arg "Generator.make: negative rate";
      if rate > 0. then tbl.(src) <- (dst, rate) :: tbl.(src))
    transitions;
  let merge lst =
    let m = Hashtbl.create 8 in
    List.iter
      (fun (dst, rate) ->
        let cur = try Hashtbl.find m dst with Not_found -> 0. in
        Hashtbl.replace m dst (cur +. rate))
      lst;
    Hashtbl.fold (fun dst rate acc -> (dst, rate) :: acc) m []
    |> List.sort compare |> Array.of_list
  in
  let rows = Array.map merge tbl in
  let exit =
    Array.map (fun row -> Array.fold_left (fun s (_, r) -> s +. r) 0. row) rows
  in
  { n; rows; exit }

let of_rows rows =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Generator.of_rows: need n > 0";
  Array.iteri
    (fun i row ->
      let prev = ref (-1) in
      Array.iter
        (fun (dst, rate) ->
          if dst < 0 || dst >= n then
            invalid_arg "Generator.of_rows: state out of range";
          if dst = i then invalid_arg "Generator.of_rows: self loop";
          if dst <= !prev then
            invalid_arg "Generator.of_rows: row not sorted by destination";
          if not (rate > 0. && rate < Float.infinity) then
            invalid_arg "Generator.of_rows: rate not positive and finite";
          prev := dst)
        row)
    rows;
  let exit =
    Array.map (fun row -> Array.fold_left (fun s (_, r) -> s +. r) 0. row) rows
  in
  { n; rows; exit }

let n_states g = g.n

let nnz g = Array.fold_left (fun acc row -> acc + Array.length row) 0 g.rows

let outgoing g i = g.rows.(i)

let exit_rate g i = g.exit.(i)

let max_exit_rate g = Array.fold_left Float.max 0. g.exit

let to_dense g =
  let m = Mat.zeros g.n g.n in
  for i = 0 to g.n - 1 do
    Mat.set m i i (-.g.exit.(i));
    Array.iter (fun (j, r) -> Mat.set m i j (Mat.get m i j +. r)) g.rows.(i)
  done;
  m

let apply g v =
  if Vec.dim v <> g.n then invalid_arg "Generator.apply: dimension mismatch";
  Array.init g.n (fun i ->
      let acc = ref (-.g.exit.(i) *. v.(i)) in
      Array.iter (fun (j, r) -> acc := !acc +. (r *. v.(j))) g.rows.(i);
      !acc)

let apply_forward g p =
  if Vec.dim p <> g.n then
    invalid_arg "Generator.apply_forward: dimension mismatch";
  let out = Array.init g.n (fun i -> -.g.exit.(i) *. p.(i)) in
  for i = 0 to g.n - 1 do
    Array.iter (fun (j, r) -> out.(j) <- out.(j) +. (r *. p.(i))) g.rows.(i)
  done;
  out
