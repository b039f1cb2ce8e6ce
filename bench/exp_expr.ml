(* EXPR: cost of the compiled symbolic IR.

   The refactor made every solver consume tape-compiled drifts, so
   this experiment prices the tape against the code it replaced:

   - the naive [Expr.eval] interpreter (what the symbolic twins used
     on the hot path before compilation existed), and
   - the deleted hand-written closures.  For every model those were
     per-transition rate closures consumed through the
     [Population.drift] fold — reconstructed verbatim below — which
     is the drift the solvers called through the closure inclusion
     that [Di.of_model] replaced.
     SIR additionally had a bespoke Eq. (11) closed form; it is
     reported as a reference row (a two-line float expression kept in
     registers is the hard floor no interpreted representation can
     reach) but the acceptance budget is priced against the closure
     path the refactor deleted from the solver pipeline.

   Drift micro-benchmarks run on SIR (small, smooth) and GPS-Poisson
   (guards, clamps, a quotient); the end-to-end rows time
   Analysis.transient_bounds on both models.  Results go to
   BENCH_expr.json; the acceptance budget is a compiled tape within
   1.5x of the hand-written closure drift. *)
open Umf

let sirp = Sir.default_params

let gpsp = Gps.default_params

(* ---- the deleted hand-written rate closures, reconstructed ---- *)

(* SIR transition rates exactly as they stood in lib/models/sir.ml *)
let sir_legacy p =
  let tr name change rate = { Population.name; change; rate } in
  Population.make ~name:"sir-legacy" ~var_names:[| "S"; "I" |]
    ~theta_names:[| "theta" |]
    ~theta:
      (Optim.Box.of_intervals
         [ Interval.make p.Sir.theta_min p.Sir.theta_max ])
    [
      tr "infection" [| -1.; 1. |]
        (fun (x : Vec.t) (th : Vec.t) ->
          (p.Sir.a *. x.(0)) +. (th.(0) *. x.(0) *. x.(1)));
      tr "recovery" [| 0.; -1. |] (fun x _ -> p.Sir.b *. x.(1));
      tr "immunity-loss" [| 1.; 0. |]
        (fun x _ -> p.Sir.c *. Float.max 0. (1. -. x.(0) -. x.(1)));
    ]

(* Eq. (11) closed form — the deleted bespoke SIR drift; only SIR
   ever had one *)
let sir_closed_form p (x : Vec.t) (theta : Vec.t) (out : Vec.t) =
  let xs = x.(0) and xi = x.(1) and th = theta.(0) in
  out.(0) <-
    p.Sir.c
    -. ((p.Sir.a +. p.Sir.c) *. xs)
    -. (p.Sir.c *. xi)
    -. (th *. xs *. xi);
  out.(1) <- (p.Sir.a *. xs) +. (th *. xs *. xi) -. (p.Sir.b *. xi)

(* GPS-Poisson rate closures exactly as they stood in
   lib/models/gps.ml, guards and clamps included *)
let gps_legacy p =
  let service ~q1 ~q2 i =
    let clamp q = Float.min 1. (Float.max 0. q) in
    let q1 = clamp q1 and q2 = clamp q2 in
    let backlog =
      (p.Gps.phi1 *. p.Gps.gamma1 *. q1) +. (p.Gps.phi2 *. p.Gps.gamma2 *. q2)
    in
    if backlog <= 1e-12 then 0.
    else if i = 1 then
      p.Gps.mu1 *. p.Gps.capacity *. p.Gps.phi1 *. p.Gps.gamma1 *. q1
      /. backlog
    else
      p.Gps.mu2 *. p.Gps.capacity *. p.Gps.phi2 *. p.Gps.gamma2 *. q2
      /. backlog
  in
  let arrival i gamma (x : Vec.t) (theta : Vec.t) =
    theta.(i - 1) *. gamma *. Float.max 0. (1. -. x.(i - 1))
  in
  let serve i (x : Vec.t) _theta = service ~q1:x.(0) ~q2:x.(1) i in
  let tr name change rate = { Population.name; change; rate } in
  Population.make ~name:"gps-legacy" ~var_names:[| "Q1"; "Q2" |]
    ~theta_names:[| "lambda'1"; "lambda'2" |]
    ~theta:(Model.theta (Gps.make_poisson p))
    [
      tr "arrival-1" [| 1. /. p.Gps.gamma1; 0. |] (arrival 1 p.Gps.gamma1);
      tr "service-1" [| -1. /. p.Gps.gamma1; 0. |] (serve 1);
      tr "arrival-2" [| 0.; 1. /. p.Gps.gamma2 |] (arrival 2 p.Gps.gamma2);
      tr "service-2" [| 0.; -1. /. p.Gps.gamma2 |] (serve 2);
    ]

(* cycle through a fixed bag of in-box points so the guards see both
   branches and the timing is not one perfectly predicted trace *)
let sample_points rng n (state : Optim.Box.t) (theta : Optim.Box.t) =
  Array.init n (fun _ ->
      (Optim.Box.sample_uniform rng state, Optim.Box.sample_uniform rng theta))

let iters = 200_000

let time_per_eval points f =
  let sink = ref 0. in
  let n = Array.length points in
  (* warm-up pass keeps one-time setup out of the measured loop *)
  for i = 0 to n - 1 do
    let x, th = points.(i) in
    sink := !sink +. f x th
  done;
  let (), wall =
    Common.time_it (fun () ->
        for i = 0 to iters - 1 do
          let x, th = points.(i mod n) in
          sink := !sink +. f x th
        done)
  in
  (wall /. float_of_int iters *. 1e9, !sink)

(* all rows go through the solver-facing allocating contract
   [drift x th -> fresh vector], so the comparison prices exactly the
   call every solver makes through [Di.t] *)
let drift_rows name model legacy =
  let points =
    sample_points (Rng.create 42) 64 (Model.clip model) (Model.theta model)
  in
  let dim = Model.dim model in
  let out = Vec.zeros dim in
  let compiled_ns, s1 =
    time_per_eval points (fun x th -> (Model.drift model x th).(0))
  in
  let exprs = Model.drift_exprs model in
  let interp_ns, s2 =
    time_per_eval points (fun x th ->
        for i = 0 to dim - 1 do
          out.(i) <- Expr.eval exprs.(i) ~x ~th
        done;
        out.(0))
  in
  let legacy_ns, s3 =
    time_per_eval points (fun x th -> (Population.drift legacy x th).(0))
  in
  ignore (s1 +. s2 +. s3);
  let ratio = compiled_ns /. legacy_ns in
  let speedup = interp_ns /. compiled_ns in
  Common.row "%-12s %10.1f %10.1f %10.1f %8.2fx %8.2fx\n" name compiled_ns
    interp_ns legacy_ns ratio speedup;
  ( name,
    [
      ("compiled_ns_per_eval", Obs.Json.Num compiled_ns);
      ("interpreted_ns_per_eval", Obs.Json.Num interp_ns);
      ("closure_ns_per_eval", Obs.Json.Num legacy_ns);
      ("compiled_over_closure", Obs.Json.Num ratio);
      ("compiled_over_interpreted_speedup", Obs.Json.Num speedup);
    ],
    ratio )

let bounds_row name model =
  let s = Analysis.spec ~steps:200 ~horizon:5. model in
  let x0 = Model.x0 model in
  let b, wall =
    Common.time_it (fun () -> Analysis.transient_bounds s ~x0 ~coord:0)
  in
  Common.row "%-12s transient_bounds %8.3f s  (coord 0 in [%.4f, %.4f] at T)\n"
    name wall
    b.Analysis.lower.(Array.length b.Analysis.lower - 1)
    b.Analysis.upper.(Array.length b.Analysis.upper - 1);
  (name, Obs.Json.Obj [ ("transient_bounds_s", Obs.Json.Num wall) ])

let run () =
  Common.banner "EXPR: compiled tape vs interpreter vs hand-written closures";
  let sir = Sir.make sirp and gps = Gps.make_poisson gpsp in
  Common.header
    [ "model"; "tape_ns"; "interp_ns"; "closure_ns"; "vs_closure"; "vs_interp" ];
  let r_sir, j_sir, ratio_sir = drift_rows "sir" sir (sir_legacy sirp) in
  let r_gps, j_gps, ratio_gps = drift_rows "gps-poisson" gps (gps_legacy gpsp) in
  (* reference floor: SIR's deleted Eq. (11) closed form, two float
     expressions the compiler keeps entirely in registers *)
  let cf_points =
    sample_points (Rng.create 42) 64 (Model.clip sir) (Model.theta sir)
  in
  let cf_out = Vec.zeros 2 in
  let closed_form_ns, s =
    time_per_eval cf_points (fun x th ->
        sir_closed_form sirp x th cf_out;
        cf_out.(0))
  in
  ignore s;
  Common.row
    "%-12s closed-form Eq.(11) reference %8.1f ns/eval (register floor)\n"
    "sir" closed_form_ns;
  let j_sir =
    j_sir @ [ ("closed_form_ns_per_eval", Obs.Json.Num closed_form_ns) ]
  in
  let e2e = [ bounds_row "sir" sir; bounds_row "gps-poisson" gps ] in
  Common.claim "compiled tape within 1.5x of hand-written closures"
    (ratio_sir <= 1.5 && ratio_gps <= 1.5)
    (Printf.sprintf "sir %.2fx, gps %.2fx" ratio_sir ratio_gps);
  let oc = open_out "BENCH_expr.json" in
  output_string oc
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("iters", Obs.Json.Num (float_of_int iters));
            ( "drift",
              Obs.Json.Obj
                [ (r_sir, Obs.Json.Obj j_sir); (r_gps, Obs.Json.Obj j_gps) ] );
            ("end_to_end", Obs.Json.Obj e2e);
          ]));
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_expr.json"
