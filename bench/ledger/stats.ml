(* Order statistics over samples. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* linear interpolation between closest ranks; nan on no samples *)
let quantile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* The Harrell-Davis estimate of the [p]-quantile: a weighted mean of
   every order statistic, the i-th weighted by the Beta(p(n+1),
   (1-p)(n+1)) mass on [(i-1)/n, i/n].  A sample of few distinct
   latency levels makes the plain quantile jump from one level to the
   next when noise reorders two inputs; this estimate moves smoothly. *)
let hd_quantile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n = 1 then a.(0)
  else if n > 2000 then quantile xs p
  else
    let alpha = p *. float_of_int (n + 1) and beta = (1. -. p) *. float_of_int (n + 1) in
    (* the Beta density integrated by the midpoint rule, 64 cells per
       order statistic, then normalised; scaled by its value at the
       mode, where it peaks, so that it does not underflow *)
    let cells = 64 * n in
    let log_d t = ((alpha -. 1.) *. log t) +. ((beta -. 1.) *. log (1. -. t)) in
    let peak = log_d (Float.min 0.999 (Float.max 0.001 ((alpha -. 1.) /. (alpha +. beta -. 2.)))) in
    let mass = Array.make n 0. in
    for k = 0 to cells - 1 do
      let t = (float_of_int k +. 0.5) /. float_of_int cells in
      mass.(k / 64) <- mass.(k / 64) +. exp (log_d t -. peak)
    done;
    let total = Array.fold_left ( +. ) 0. mass in
    let acc = ref 0. in
    Array.iteri (fun i w -> acc := !acc +. (w /. total *. a.(i))) mass;
    !acc

let sum xs = Array.fold_left ( +. ) 0. xs

(* the quartiles of Python's statistics.quantiles(xs, n=4), the default
   "exclusive" method, so spreads read the same as any Python check *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then (Float.nan, median xs, Float.nan)
  else
    let q i =
      let m = n + 1 in
      let j = Int.min (n - 1) (Int.max 1 (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)
