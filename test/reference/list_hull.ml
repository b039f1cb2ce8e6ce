(* The list-based monotone chain that Geometry.convex_hull ran before
   the hull moved to float arrays, kept as the oracle the array chain
   must reproduce bit for bit: List.sort_uniq under polymorphic compare,
   then the two chains folded over the sorted list. *)

type point = float * float

let cross (ox, oy) (ax, ay) (bx, by) =
  ((ax -. ox) *. (by -. oy)) -. ((ay -. oy) *. (bx -. ox))

let convex_hull (points : point list) =
  let pts = List.sort_uniq compare points in
  match pts with
  | [] | [ _ ] | [ _; _ ] -> pts
  | _ ->
      (* [half] folds the sorted points into one hull chain, kept in
         reverse order; a non-positive cross product means the middle
         point is not a strict left turn and is popped *)
      let half input =
        List.fold_left
          (fun acc p ->
            let rec pop = function
              | a :: b :: rest when cross b a p <= 0. -> pop (b :: rest)
              | l -> l
            in
            p :: pop acc)
          [] input
      in
      let lower = half pts in
      let upper = half (List.rev pts) in
      (* each chain ends (in reverse order, starts) with the first
         point of the other chain; drop one endpoint from each *)
      let strip = function [] -> [] | _ :: tl -> tl in
      let hull = List.rev (strip lower) @ List.rev (strip upper) in
      if hull = [] then pts else hull
