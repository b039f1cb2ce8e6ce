open Umf_numerics

let step h x = h *. Float.max 1. (Float.abs x)

let derivative ?(h = 1e-6) f x =
  let hh = step h x in
  (f (x +. hh) -. f (x -. hh)) /. (2. *. hh)

let gradient ?(h = 1e-6) f x =
  Array.init (Vec.dim x) (fun i ->
      let hh = step h x.(i) in
      let xp = Vec.copy x and xm = Vec.copy x in
      xp.(i) <- x.(i) +. hh;
      xm.(i) <- x.(i) -. hh;
      (f xp -. f xm) /. (2. *. hh))

let jacobian ?(h = 1e-6) f x =
  let n = Vec.dim x in
  let fx = f x in
  let m = Vec.dim fx in
  let jac = Mat.zeros m n in
  for j = 0 to n - 1 do
    let hh = step h x.(j) in
    let xp = Vec.copy x and xm = Vec.copy x in
    xp.(j) <- x.(j) +. hh;
    xm.(j) <- x.(j) -. hh;
    let fp = f xp and fm = f xm in
    for i = 0 to m - 1 do
      Mat.set jac i j ((fp.(i) -. fm.(i)) /. (2. *. hh))
    done
  done;
  jac

let jacobian_tv ?h f x p = gradient ?h (fun y -> Vec.dot (f y) p) x
