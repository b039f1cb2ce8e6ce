open Umf_numerics
open Umf_ctmc

type t = { n : int; lo : float array array; hi : float array array }

let make rows =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Interval_dtmc.make: empty matrix";
  Array.iter
    (fun row ->
      if Array.length row <> n then
        invalid_arg "Interval_dtmc.make: matrix not square")
    rows;
  let lo = Array.map (Array.map Interval.lo) rows in
  let hi = Array.map (Array.map Interval.hi) rows in
  Array.iteri
    (fun i row ->
      Array.iter
        (fun iv ->
          if Interval.lo iv < -1e-12 || Interval.hi iv > 1. +. 1e-12 then
            invalid_arg "Interval_dtmc.make: probabilities outside [0,1]")
        row;
      let sum_lo = Array.fold_left ( +. ) 0. lo.(i) in
      let sum_hi = Array.fold_left ( +. ) 0. hi.(i) in
      if sum_lo > 1. +. 1e-9 || sum_hi < 1. -. 1e-9 then
        invalid_arg "Interval_dtmc.make: incoherent row")
    rows;
  { n; lo; hi }

let n_states m = m.n

(* tight lower expectation of one row: start every state at its lower
   probability, then pour the remaining mass into states in increasing
   order of g, each up to its upper bound *)
let row_lower m i g order =
  let p = Array.copy m.lo.(i) in
  let mass = ref (Array.fold_left ( +. ) 0. p) in
  let k = ref 0 in
  while !mass < 1. -. 1e-15 && !k < m.n do
    let j = order.(!k) in
    let room = m.hi.(i).(j) -. p.(j) in
    let add = Float.min room (1. -. !mass) in
    p.(j) <- p.(j) +. add;
    mass := !mass +. add;
    incr k
  done;
  let acc = ref 0. in
  for j = 0 to m.n - 1 do
    acc := !acc +. (p.(j) *. g.(j))
  done;
  !acc

let lower_matvec m g =
  if Vec.dim g <> m.n then invalid_arg "Interval_dtmc: dimension mismatch";
  let order = Array.init m.n Fun.id in
  Array.sort (fun a b -> compare g.(a) g.(b)) order;
  Array.init m.n (fun i -> row_lower m i g order)

let upper_matvec m g =
  Vec.scale (-1.) (lower_matvec m (Vec.scale (-1.) g))

let iterate f h steps =
  let g = ref (Vec.copy h) in
  for _ = 1 to steps do
    g := f !g
  done;
  !g

let lower_expectation m ~h ~steps =
  if steps < 0 then invalid_arg "Interval_dtmc: negative steps";
  iterate (lower_matvec m) h steps

let upper_expectation m ~h ~steps =
  if steps < 0 then invalid_arg "Interval_dtmc: negative steps";
  iterate (upper_matvec m) h steps

let of_imprecise_ctmc ictmc ~dt =
  if dt <= 0. then invalid_arg "Interval_dtmc.of_imprecise_ctmc: dt <= 0";
  let n = Imprecise_ctmc.n_states ictmc in
  let box = Imprecise_ctmc.theta_box ictmc in
  let vertices = Optim.Box.vertices box in
  (* per-vertex generators give entrywise rate ranges *)
  let lo_rate = Array.make_matrix n n Float.infinity in
  let hi_rate = Array.make_matrix n n Float.neg_infinity in
  List.iter
    (fun theta ->
      let g = Imprecise_ctmc.generator_at ictmc theta in
      let dense = Generator.to_dense g in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let q = Mat.get dense i j in
          if q < lo_rate.(i).(j) then lo_rate.(i).(j) <- q;
          if q > hi_rate.(i).(j) then hi_rate.(i).(j) <- q
        done
      done)
    vertices;
  let rows =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i = j then begin
              let lo = 1. +. (dt *. lo_rate.(i).(j)) in
              let hi = 1. +. (dt *. hi_rate.(i).(j)) in
              if lo < -1e-12 then
                invalid_arg
                  "Interval_dtmc.of_imprecise_ctmc: dt too large for exit rates";
              Interval.make (Float.max 0. lo) (Float.min 1. hi)
            end
            else
              Interval.make
                (Float.max 0. (dt *. lo_rate.(i).(j)))
                (Float.min 1. (dt *. hi_rate.(i).(j)))))
  in
  make rows
