(* Seeded inputs of the three workloads.  Every input is a function of
   the seed alone; the programs under test see only the generated
   request lines and command lines.  Each workload is a fixed design
   that the seed perturbs -- horizons and thresholds within 2%,
   population sizes within 2, the order of requests, the arrivals --
   because freely drawn parameters moved the work in a run by 25% from
   one seed to the next. *)

let models = Array.of_list Umf.Registry.names

let dim m = Umf.Model.dim (Umf.Registry.find_exn m)

let rng seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

let uniform st lo hi = lo +. Random.State.float st (hi -. lo)

let int_in st lo hi = lo + Random.State.int st (hi - lo + 1)

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ------------------------------------------------------------------ *)
(* daemon requests                                                    *)

(* a request body without its id, so one catalogue entry can be sent
   under any id; every request carries the 10 s deadline *)
type request = { op : string; body : string }

let request ~op ~model fields =
  {
    op;
    body =
      String.concat ","
        ((Printf.sprintf "\"op\":%S" op :: Printf.sprintf "\"model\":%S" model
        :: fields)
        @ [ "\"deadline_ms\":10000" ])
      ^ "}";
  }

let line ~id r = Printf.sprintf "{\"id\":%d,%s" id r.body

let horizon h = Printf.sprintf "\"horizon\":%.3f" h

let steps s = Printf.sprintf "\"steps\":%d" s

let uncertain g = Printf.sprintf "\"scenario\":{\"uncertain\":%d}" g

let no_cache = "\"cache\":false"

(* forces model resolution and plan compilation; hull is not used
   because it fails on sir3 (see README) *)
let warm_up m =
  request ~op:"bounds" ~model:m
    [ uncertain 2; horizon 0.05; steps 1; no_cache ]

(* a design value moved by the seed within +-2% *)
let jitter st x = x *. uniform st 0.98 1.02

(* mf-solve: every solver on every model it accepts, uncached.  The
   design (model, op, coordinate, steps, grid, horizon) is fixed and the
   seed only jitters horizons and start points: a Pontryagin solve's
   sweep count jumps with the coordinate and horizon, so freely drawn
   ones made the deck's cost differ by 25% between seeds. *)
let mf_solve ~tiny seed =
  let st = rng seed "mf-solve" in
  if tiny then
    Array.of_list
      [
        request ~op:"bounds" ~model:"sis" [ "\"coord\":0"; horizon 0.5; steps 10; no_cache ];
        request ~op:"bounds" ~model:"sir"
          [ "\"coord\":1"; horizon (jitter st 0.5); uncertain 3; no_cache ];
        request ~op:"hull" ~model:"sis" [ horizon 0.5; no_cache ];
      ]
  else
    (* models alternate between the two halves of the design *)
    let per_model k m =
      let first = "\"coord\":0" and last = Printf.sprintf "\"coord\":%d" (dim m - 1) in
      let bounds fields h = request ~op:"bounds" ~model:m (fields @ [ horizon (jitter st h); no_cache ]) in
      let solves =
        if k mod 2 = 0 then [ bounds [ first; steps 60 ] 1.5; bounds [ last; uncertain 7 ] 2.5 ]
        else [ bounds [ last; steps 120 ] 2.5; bounds [ first; uncertain 4 ] 1.5 ]
      in
      if m = "sir3" || m = "jsq2" then solves
      else solves @ [ request ~op:"hull" ~model:m [ horizon (jitter st 2.); no_cache ] ]
    in
    let steady =
      request ~op:"steady" ~model:"sir"
        [
          Printf.sprintf "\"x_start\":[%.4f,%.4f]" (jitter st 0.5) (jitter st 0.3);
          no_cache;
        ]
    in
    Array.of_list (List.concat (List.mapi per_model (Array.to_list models)) @ [ steady ])

(* the parameter grid at which one uncertain-bounds miss costs about
   2 ms on each model, given its parameter count and drift cost *)
let grid = function
  | "sis" -> 16
  | "sir" | "sir3" | "cholera" -> 12
  | "jsq2" -> 6
  | "bike" -> 5
  | "gps-poisson" -> 4
  | "gps-map" -> 3
  | _ -> 2

(* entry [i] of the open-mix catalogue.  Model, coordinate and horizon
   follow from the position alone (horizons spread evenly over [1, 2]
   by the golden-ratio sequence), so every seed's catalogue costs the
   same and its misses are alike whichever entries a stream draws; the
   seed only jitters the horizons. *)
let entry st i =
  let nm = Array.length models in
  let m = models.(i mod nm) in
  let h = 1. +. Float.rem (float_of_int i *. 0.6180339887) 1. in
  request ~op:"bounds" ~model:m
    [
      Printf.sprintf "\"coord\":%d" (i / nm mod dim m);
      horizon (jitter st h);
      uncertain (grid m);
    ]

(* open-mix: a Zipf-popular catalogue under scheduled arrivals *)
type open_mix = {
  catalogue : request array;  (** Entry [i] is the [i]-th most popular. *)
  rates : float array;  (** Requests per second of each step. *)
  step_s : float;
}

(* Zipf(0.8), not the steeper 1.1: with a 64-entry cache a 1.1 stream
   hits about half the time, which puts the median latency on the edge
   between hits and misses and makes it jump between runs; at 0.8 about
   a quarter of requests hit and both percentiles fall among misses *)
let zipf_s = 0.8

(* a one-second step offers 120 requests at the middle rate, so its
   p90 has 12 samples beyond it *)
let open_mix ~tiny seed =
  let st = rng seed "open-mix" in
  {
    catalogue = Array.init (if tiny then 40 else 1000) (entry st);
    rates = (if tiny then [| 10.; 20.; 40. |] else [| 60.; 120.; 240. |]);
    step_s = (if tiny then 0.1 else 1.);
  }

(* window [k]'s arrivals: (due time in seconds from the start,
   catalogue entry) in due order.  Each step is a Poisson stream
   conditioned on its count -- sorted uniform times -- so it offers
   exactly rate x duration requests.  The entries a step asks for are
   the Zipf quantiles at evenly spaced levels, in a seeded order: every
   window asks for the same popularity mix, so its hit ratio does not
   hang on a lucky draw of popular entries. *)
let schedule om ~seed k =
  let st = rng seed (Printf.sprintf "open-mix/%d" k) in
  let size = Array.length om.catalogue in
  let cdf =
    let w = Array.init size (fun r -> 1. /. (float_of_int (r + 1) ** zipf_s)) in
    let total = Array.fold_left ( +. ) 0. w in
    let acc = ref 0. in
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  let entry u =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then go (mid + 1) hi else go lo mid
    in
    go 0 (size - 1)
  in
  Array.to_list om.rates
  |> List.mapi (fun step rate ->
         let n = Int.max 1 (int_of_float (Float.round (rate *. om.step_s))) in
         let ts = Array.init n (fun _ -> (float_of_int step +. Random.State.float st 1.) *. om.step_s) in
         Array.sort Float.compare ts;
         let es = Array.init n (fun j -> entry ((float_of_int j +. 0.5) /. float_of_int n)) in
         shuffle st es;
         Array.map2 (fun t e -> (t, e)) ts es)
  |> Array.concat

(* ------------------------------------------------------------------ *)
(* CLI runs                                                           *)

(* every `umf_cli ctmc' mode.  As for mf-solve the design is fixed --
   a lattice's size grows with the square of n, so a freely drawn n
   moved a run's cost sevenfold -- and the seed moves each population
   size by at most 2 and each threshold and horizon by at most 2%. *)
let ctmc_cli ~tiny seed =
  let st = rng seed "ctmc-cli" in
  let i = string_of_int in
  let f = Printf.sprintf "%.3f" in
  let size n = i (n + int_in st (-2) 2) in
  (* two runs per stratum: the small design point at the low corner of
     the parameter box, the large one at the high corner *)
  let sized small large mk = [ mk (size small) "lo"; mk (size large) "hi" ] in
  let adaptive = [ "--truncation"; "adaptive"; "--max-states"; "20000" ] in
  let fp m n var above eps =
    List.map
      (fun h ->
        [ "first-passage"; "-m"; m; "-n"; i n; "--var"; var; "--above"; f (jitter st above);
          "--epsilon"; eps; "--points"; "5"; "--horizon"; f (jitter st h) ])
      [ 1.25; 1.75 ]
  in
  if tiny then
    Array.of_list
      [
        [ "transient"; "-m"; "sir"; "-n"; "10"; "--points"; "3" ];
        [ "stationary"; "-m"; "sis"; "-n"; "20" ];
        [ "bounds"; "-m"; "sir"; "-n"; "10"; "--var"; "I"; "--grid"; "2"; "--points"; "3" ];
        [ "first-passage"; "-m"; "sir"; "-n"; "4"; "--var"; "I"; "--above"; "0.5";
          "--epsilon"; "0.1"; "--points"; "2"; "--horizon"; "0.5" ];
      ]
  else
    Array.of_list
      (List.concat
         [
           sized 75 105 (fun n th -> [ "transient"; "-m"; "sir"; "-n"; n; "--theta"; th ]);
           sized 32 38 (fun n th -> [ "transient"; "-m"; "sir3"; "-n"; n; "--theta"; th ]);
           sized 25 35 (fun n th ->
               [ "transient"; "-m"; "gps-poisson"; "-n"; n; "--theta"; th ] @ adaptive);
           [ [ "transient"; "-m"; "cholera"; "-n"; "20" ] @ adaptive ];
           sized 50 65 (fun n th -> [ "stationary"; "-m"; "sir"; "-n"; n; "--theta"; th ]);
           [ [ "stationary"; "-m"; "bike"; "-n"; size 40 ] ];
           [ [ "stationary"; "-m"; "sis"; "-n"; size 200 ] ];
           sized 45 55 (fun n _ -> [ "bounds"; "-m"; "sir"; "-n"; n; "--var"; "I"; "--grid"; "3" ]);
           fp "sir" 8 "I" 0.4 "0.1";
           fp "sis" 20 "I" 0.5 "0.05";
           fp "bike" 10 "B" 0.8 "0.1";
         ])

(* the smallest run of each mode: the CLI's set-up probe *)
let ctmc_warm_up =
  [
    [ "transient"; "-m"; "sir"; "-n"; "10"; "--points"; "2" ];
    [ "stationary"; "-m"; "sis"; "-n"; "10" ];
    [ "bounds"; "-m"; "sir"; "-n"; "5"; "--var"; "I"; "--grid"; "2"; "--points"; "2" ];
    [ "first-passage"; "-m"; "sir"; "-n"; "3"; "--var"; "I"; "--above"; "0.5";
      "--epsilon"; "0.1"; "--points"; "2"; "--horizon"; "0.2" ];
  ]
