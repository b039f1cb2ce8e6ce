(* NDJSON request/response codec over Analysis.spec: the one op layer
   both front ends call.  umf_serve parses request lines, evaluates and
   renders JSON responses here, so the daemon itself only schedules;
   umf_cli builds the same requests from its flags, evaluates them here
   and prints them with [render].  One JSON object per line in both
   directions; requests name a registry model plus spec overrides,
   responses carry the result payload and its Cert ledger. *)

module Json = Umf_obs.Obs.Json
module Vec = Umf_numerics.Vec
module Interval = Umf_numerics.Interval
module Cert = Umf_numerics.Cert
module Optim = Umf_numerics.Optim
module Geometry = Umf_numerics.Geometry
module Model = Umf_meanfield.Model
module Policy = Umf_meanfield.Policy
module Ssa = Umf_meanfield.Ssa
module Engine = Umf_meanfield.Engine
module Registry = Umf_models.Registry
module Hull = Umf_diffinc.Hull
module Birkhoff = Umf_diffinc.Birkhoff

exception Bad_request of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_request s)) fmt

(* ------------------------------------------------------------------ *)
(* requests                                                           *)

type theta_point = [ `Mid | `Lo | `Hi ]

type op =
  | Bounds of { x0 : Vec.t option; coord : int; times : float array option }
  | Hull_bounds of { x0 : Vec.t option }
  | Steady of { x_start : Vec.t option }
  | First_passage of {
      n : int;
      coord : int;
      level : float;
      direction : [ `Above | `Below ];
      epsilon : float option;
      max_states : int option;
      times : float array option;
    }
  | Simulate of {
      n : int;
      policy : string;
      seed : int;
      sample : [ `Trajectory of int | `Finals of int ];
    }
  | Ctmc of {
      mode :
        [ `Transient of theta_point
        | `Stationary of theta_point
        | `Envelope of int ];
      n : int;
      epsilon : float option;
      truncation : [ `Exact | `Adaptive ];
      max_states : int;
      times : float array option;
    }

type request = {
  id : Json.t;
  model : string;
  scenario : Analysis.scenario;
  theta : Optim.Box.t option;
  horizon : float option;
  steps : int option;
  dt : float option;
  tol : float option;
  op : op;
  deadline_ms : float option;
  cache : bool;
}

type parsed =
  | Analyze of request
  | Ping of Json.t
  | Metrics of Json.t
  | Models of Json.t

let op_name = function
  | Bounds _ -> "bounds"
  | Hull_bounds _ -> "hull"
  | Steady _ -> "steady"
  | First_passage _ -> "first_passage"
  | Simulate _ -> "simulate"
  | Ctmc _ -> "ctmc"

(* field accessors: absent and JSON null are both "not given" *)
let field name j =
  match Json.member name j with Some Json.Null -> None | v -> v

(* "1e999" parses to infinity: no field takes a non-finite number *)
let opt_num name j =
  match field name j with
  | None -> None
  | Some (Json.Num f) when Float.is_finite f -> Some f
  | Some (Json.Num _) -> bad "field %S must be a finite number" name
  | Some _ -> bad "field %S must be a number" name

let opt_int name j =
  match opt_num name j with
  | None -> None
  | Some f ->
      if Float.is_integer f then Some (int_of_float f)
      else bad "field %S must be an integer" name

let req_int name j =
  match opt_int name j with
  | Some i -> i
  | None -> bad "missing required integer field %S" name

let req_num name j =
  match opt_num name j with
  | Some f -> f
  | None -> bad "missing required number field %S" name

let num_list name = function
  | Json.Arr l ->
      Array.of_list
        (List.map
           (function
             | Json.Num f when Float.is_finite f -> f
             | Json.Num _ -> bad "field %S must hold finite numbers" name
             | _ -> bad "field %S must hold numbers" name)
           l)
  | _ -> bad "field %S must be an array" name

let opt_vec name j =
  match field name j with None -> None | Some v -> Some (num_list name v)

let opt_times j =
  let times = opt_vec "times" j in
  Option.iter
    (Array.iter (fun t ->
         if t < 0. then bad "field \"times\" must hold numbers >= 0"))
    times;
  times

let opt_bool ~default name j =
  match field name j with
  | None -> default
  | Some (Json.Bool b) -> b
  | Some _ -> bad "field %S must be a boolean" name

let opt_str ~default name j =
  match field name j with
  | None -> default
  | Some (Json.Str s) -> s
  | Some _ -> bad "field %S must be a string" name

(* the wire names of the enumerated op fields *)
let directions = [ ("above", `Above); ("below", `Below) ]

let modes =
  [
    ("transient", `Transient);
    ("stationary", `Stationary);
    ("envelope", `Envelope);
  ]

let truncations = [ ("exact", `Exact); ("adaptive", `Adaptive) ]

let theta_points = [ ("mid", `Mid); ("lo", `Lo); ("hi", `Hi) ]

let enum ~default name cases j =
  match (field name j, default) with
  | None, Some d -> d
  | None, None -> bad "missing required field %S" name
  | Some (Json.Str s), _ when List.mem_assoc s cases -> List.assoc s cases
  | Some _, _ ->
      bad "field %S must be one of %s" name
        (String.concat ", " (List.map (fun (k, _) -> Printf.sprintf "%S" k) cases))

let int_or name default j = Option.value ~default (opt_int name j)

let scenario_of_json j =
  match field "scenario" j with
  | None -> Analysis.Imprecise
  | Some (Json.Str "imprecise") -> Analysis.Imprecise
  | Some (Json.Str s) ->
      bad
        "unknown scenario %S (want \"imprecise\", {\"uncertain\":GRID} or \
         {\"piecewise\":K})"
        s
  | Some (Json.Obj _ as o) -> (
      match (Json.member "uncertain" o, Json.member "piecewise" o) with
      | Some (Json.Num g), _ when Float.is_integer g ->
          Analysis.Uncertain (int_of_float g)
      | None, Some (Json.Num k) when Float.is_integer k ->
          Analysis.Piecewise (int_of_float k)
      | _ ->
          bad
            "scenario object must be {\"uncertain\":GRID} or \
             {\"piecewise\":K}")
  | Some _ -> bad "field \"scenario\" must be a string or an object"

let theta_of_json j =
  match field "theta" j with
  | None -> None
  | Some (Json.Arr rows) ->
      let iv = function
        | Json.Arr [ Json.Num lo; Json.Num hi ] -> (
            if not (Float.is_finite lo && Float.is_finite hi) then
              bad "bad theta interval: bounds must be finite";
            try Interval.make lo hi
            with Invalid_argument m -> bad "bad theta interval: %s" m)
        | _ -> bad "field \"theta\" must be an array of [lo, hi] pairs"
      in
      if rows = [] then bad "field \"theta\" must not be empty";
      Some (Optim.Box.of_intervals (List.map iv rows))
  | Some _ -> bad "field \"theta\" must be an array of [lo, hi] pairs"

let op_of_json j =
  match field "op" j with
  | Some (Json.Str "bounds") ->
      `Analysis
        (Bounds
           {
             x0 = opt_vec "x0" j;
             coord = int_or "coord" 0 j;
             times = opt_times j;
           })
  | Some (Json.Str "hull") -> `Analysis (Hull_bounds { x0 = opt_vec "x0" j })
  | Some (Json.Str "steady") ->
      `Analysis (Steady { x_start = opt_vec "x_start" j })
  | Some (Json.Str "first_passage") ->
      `Analysis
        (First_passage
           {
             n = req_int "n" j;
             coord = req_int "coord" j;
             level = req_num "level" j;
             direction = enum ~default:(Some `Above) "direction" directions j;
             epsilon = opt_num "epsilon" j;
             max_states = opt_int "max_states" j;
             times = opt_times j;
           })
  | Some (Json.Str "simulate") ->
      (* only the fields the answer depends on enter the op, so
         requests computing the same answer share a cache key *)
      let points = int_or "points" 50 j in
      `Analysis
        (Simulate
           {
             n = req_int "n" j;
             policy = opt_str ~default:"mid" "policy" j;
             seed = int_or "seed" 1 j;
             sample =
               (match int_or "reps" 1 j with
               | 1 -> `Trajectory points
               | reps -> `Finals reps);
           })
  | Some (Json.Str "ctmc") ->
      let point = enum ~default:(Some `Mid) "theta_point" theta_points j in
      let mode =
        match enum ~default:None "mode" modes j with
        | `Transient -> `Transient point
        | `Stationary -> `Stationary point
        | `Envelope -> `Envelope (int_or "coord" 0 j)
      in
      `Analysis
        (Ctmc
           {
             mode;
             n = req_int "n" j;
             epsilon = opt_num "epsilon" j;
             truncation = enum ~default:(Some `Exact) "truncation" truncations j;
             max_states = int_or "max_states" 2_000_000 j;
             times =
               (match mode with
               | `Stationary _ -> None
               | `Transient _ | `Envelope _ -> opt_times j);
           })
  | Some (Json.Str "ping") -> `Ping
  | Some (Json.Str "metrics") -> `Metrics
  | Some (Json.Str "models") -> `Models
  | Some (Json.Str s) -> bad "unknown op %S" s
  | Some _ -> bad "field \"op\" must be a string"
  | None -> bad "missing required field \"op\""

let request_id j =
  match Json.member "id" j with Some id -> id | None -> Json.Null

let of_line line =
  let j =
    try Ok (Json.of_string line)
    with Failure m -> Error (Json.Null, "malformed JSON: " ^ m)
  in
  match j with
  | Error _ as e -> e
  | Ok j -> (
      let id = request_id j in
      try
        match op_of_json j with
        | `Ping -> Ok (Ping id)
        | `Metrics -> Ok (Metrics id)
        | `Models -> Ok (Models id)
        | `Analysis op ->
            let model =
              match field "model" j with
              | Some (Json.Str m) -> m
              | Some _ -> bad "field \"model\" must be a string"
              | None -> bad "missing required field \"model\""
            in
            Ok
              (Analyze
                 {
                   id;
                   model;
                   scenario = scenario_of_json j;
                   theta = theta_of_json j;
                   horizon = opt_num "horizon" j;
                   steps = opt_int "steps" j;
                   dt = opt_num "dt" j;
                   tol = opt_num "tol" j;
                   op;
                   deadline_ms = opt_num "deadline_ms" j;
                   cache = opt_bool ~default:true "cache" j;
                 })
      with Bad_request m -> Error (id, m))

let spec_of_request ?(resolve = Registry.find) ?pool ?obs req =
  match resolve req.model with
  | Error (`Msg m) -> bad "%s" m
  | Ok model -> (
      try
        Analysis.spec ~scenario:req.scenario ?theta:req.theta
          ?horizon:req.horizon ?steps:req.steps ?dt:req.dt ?tol:req.tol ?pool
          ?obs model
      with Invalid_argument m -> bad "%s" m)

(* ------------------------------------------------------------------ *)
(* content fingerprints                                               *)

(* everything the numeric answer depends on: the model's full content
   (not just its registry name — a recompiled registry could rebind a
   name), the effective spec after defaulting, and the op with its
   parameters, all plain data marshalled bit for bit.  Deliberately
   excluded: request id, deadline, cache flag, pool and obs — none of
   them may change a single output bit. *)
let fingerprint (s : Analysis.spec) op =
  let m = s.Analysis.model in
  let content =
    ( ( Model.name m,
        Model.var_names m,
        Model.theta_names m,
        Model.x0 m,
        Model.clip m,
        Model.theta m,
        Model.transitions m ),
      (s.Analysis.scenario, s.Analysis.theta, s.Analysis.horizon),
      (s.Analysis.steps, s.Analysis.dt, s.Analysis.tol),
      op )
  in
  Digest.to_hex (Digest.string (Marshal.to_string content [ Marshal.No_sharing ]))

(* ------------------------------------------------------------------ *)
(* evaluation                                                         *)

let vec_json v = Json.Arr (Array.to_list (Array.map (fun f -> Json.Num f) v))

let mat_json rows = Json.Arr (Array.to_list (Array.map vec_json rows))

let json_of_cert (c : Cert.t) =
  Json.Obj
    [
      ("lo", Json.Num c.Cert.value.Interval.lo);
      ("hi", Json.Num c.Cert.value.Interval.hi);
      ("vacuous", Json.Bool (Cert.is_vacuous c));
      ( "budget",
        Json.Obj
          [
            ("discretisation", Json.Num c.Cert.budget.Cert.discretisation);
            ("truncation", Json.Num c.Cert.budget.Cert.truncation);
            ("rounding", Json.Num c.Cert.budget.Cert.rounding);
            ("optimiser", Json.Num c.Cert.budget.Cert.optimiser);
          ] );
    ]

let x0_of spec = function
  | None -> Model.x0 spec.Analysis.model
  | Some v ->
      if Array.length v <> Model.dim spec.Analysis.model then
        bad "x0 has dimension %d, model %S has %d" (Array.length v)
          (Model.name spec.Analysis.model)
          (Model.dim spec.Analysis.model);
      v

let check_coord spec coord =
  if coord < 0 || coord >= Model.dim spec.Analysis.model then
    bad "coord %d out of range for model %S (dim %d)" coord
      (Model.name spec.Analysis.model)
      (Model.dim spec.Analysis.model)

let num_json i = Json.Num (float_of_int i)

let join_certs certs = Array.fold_left Cert.join certs.(0) certs

let certs_json certs = Json.Arr (Array.to_list (Array.map json_of_cert certs))

(* a sample certifies nothing: its ledger is vacuous *)
let sample_cert = Cert.of_interval (Interval.make neg_infinity infinity)

(* the named θ points of the effective parameter box *)
let theta_at spec point =
  let box =
    Option.value ~default:(Model.theta spec.Analysis.model) spec.Analysis.theta
  in
  match point with
  | `Mid -> Optim.Box.midpoint box
  | `Lo -> box.Optim.Box.lo
  | `Hi -> box.Optim.Box.hi

let policy_of spec name =
  match List.assoc_opt name theta_points with
  | Some point -> Policy.constant (theta_at spec point)
  | None -> (
      match List.assoc_opt name (Model.policies spec.Analysis.model) with
      | Some p -> p
      | None -> bad "unknown policy %s for this model" name)

(* finite-N ops report an over-budget exact lattice (and any other
   solver Failure) as a bad request carrying the solver's message *)
let finite_n f = try f () with Failure m -> bad "%s" m

let eval_ctmc spec ~mode ~n ~epsilon ~truncation ~max_states ~times =
  let m = spec.Analysis.model in
  (* epsilon is the whole certified-error target: half goes to the
     uniformisation mass tolerance, half to the adaptive sweep *)
  let mass_eps, sweep_eps =
    match epsilon with
    | Some e -> (e /. 2., Some (e /. 2.))
    | None -> (1e-12, None)
  in
  let scenario =
    match (mode, spec.Analysis.scenario) with
    | `Envelope _, Analysis.Uncertain g -> Engine.Uncertain g
    | `Envelope _, Analysis.Piecewise _ ->
        bad "ctmc envelopes take scenario \"imprecise\" or {\"uncertain\":GRID}"
    | _ -> Engine.Imprecise
  in
  let truncation =
    match truncation with
    | `Exact -> Engine.Exact { max_states }
    | `Adaptive -> Engine.Adaptive { max_states }
  in
  let es =
    Engine.spec ~scenario ?theta:spec.Analysis.theta
      ~horizon:spec.Analysis.horizon ?times ~epsilon:mass_eps ?sweep_eps
      ~truncation ?pool:spec.Analysis.pool ~obs:spec.Analysis.obs ~n m
  in
  let rewards = Array.init (Model.dim m) (fun c -> Engine.Coord c) in
  match mode with
  | `Envelope coord ->
      check_coord spec coord;
      let e = Engine.envelope es ~reward:(Engine.Coord coord) in
      ( Json.Obj
          [
            ("states", num_json e.states);
            ("times", vec_json e.times);
            ("mean", vec_json e.mean);
            ("lower", vec_json e.lower);
            ("upper", vec_json e.upper);
            ("lost", vec_json e.lost);
          ],
        e.certs.(Array.length e.certs - 1) )
  | `Transient point ->
      let tr = Engine.transient ~theta:(theta_at spec point) es ~rewards
      in
      let certs = tr.certs.(Array.length tr.certs - 1) in
      ( Json.Obj
          [
            ("states", num_json tr.states);
            ("times", vec_json tr.times);
            ("mean", mat_json tr.value);
            ("lost", vec_json tr.lost);
            ("certs", certs_json certs);
          ],
        join_certs certs )
  | `Stationary point ->
      let st = Engine.stationary ~theta:(theta_at spec point) es ~rewards in
      ( Json.Obj
          [
            ("states", num_json st.states);
            ("mean", vec_json st.values);
            ("certs", certs_json st.certs);
          ],
        join_certs st.certs )

(* Run one analysis op under the spec.  Every payload comes back with
   a top-level certificate: the result's own ledger where the analysis
   produces one, a synthesised one (join over coordinates for hulls and
   finite-N expectations, optimiser-tolerance widening for steady-state
   areas, a vacuous one for simulations) otherwise. *)
let eval spec op =
  try
    match op with
    | Bounds { x0; coord; times } ->
        check_coord spec coord;
        let x0 = x0_of spec x0 in
        let b = Analysis.transient_bounds ?times spec ~x0 ~coord in
        ( Json.Obj
            [
              ("coord", num_json b.Analysis.coord);
              ("times", vec_json b.Analysis.times);
              ("lower", vec_json b.Analysis.lower);
              ("upper", vec_json b.Analysis.upper);
            ],
          b.Analysis.cert )
    | Hull_bounds { x0 } ->
        let x0 = x0_of spec x0 in
        let traj = Analysis.hull_bounds spec ~x0 in
        let certs = Hull.final_certs traj in
        ( Json.Obj
            [
              ("times", vec_json traj.Hull.times);
              ("lower", mat_json traj.Hull.lower);
              ("upper", mat_json traj.Hull.upper);
              ("final_certs", certs_json certs);
            ],
          join_certs certs )
    | Steady { x_start } ->
        if Model.dim spec.Analysis.model <> 2 then
          bad "steady-state regions are computed for 2-variable models";
        let r = Analysis.steady_state_region_2d ?x_start spec in
        let poly =
          List.map
            (fun (x, y) -> Json.Arr [ Json.Num x; Json.Num y ])
            r.Analysis.birkhoff.Birkhoff.polygon
        in
        ( Json.Obj
            [
              ("area", Json.Num r.Analysis.area);
              ("converged", Json.Bool r.Analysis.converged);
              ("iterations", num_json r.Analysis.birkhoff.Birkhoff.iterations);
              ("polygon", Json.Arr poly);
            ],
          (* the expansion's fixpoint slack is the only budget line a
             polygon area carries *)
          Cert.widen ~optimiser:spec.Analysis.tol
            (Cert.exact r.Analysis.area) )
    | First_passage { n; coord; level; direction; epsilon; max_states; times }
      ->
        check_coord spec coord;
        let target x =
          match direction with
          | `Above -> x.(coord) >= level
          | `Below -> x.(coord) <= level
        in
        let fp =
          finite_n (fun () ->
              Analysis.first_passage ?times ?epsilon ?max_states spec ~n
                ~target)
        in
        ( Json.Obj
            [
              ("n", num_json fp.Analysis.n);
              ("states", num_json fp.Analysis.states);
              ("times", vec_json fp.Analysis.times);
              ("hit_lower", vec_json fp.Analysis.hit_lower);
              ("hit_upper", vec_json fp.Analysis.hit_upper);
              ("mfpt_lower", Json.Num fp.Analysis.mfpt_lower);
              ("mfpt_upper", Json.Num fp.Analysis.mfpt_upper);
            ],
          fp.Analysis.cert )
    | Simulate { n; policy; seed; sample } -> (
        let m = spec.Analysis.model in
        let policy = policy_of spec policy in
        let x0 = Model.x0 m in
        match sample with
        | `Trajectory points ->
            if points < 1 then bad "need at least one point";
            (* one trajectory at [points] regular times on (0, horizon] *)
            let c =
              Analysis.stationary_cloud spec ~n ~x0 ~policy ~warmup:0.
                ~samples:points ~seed
            in
            ( Json.Obj
                [
                  ("times", vec_json c.Analysis.times);
                  ("states", mat_json c.Analysis.states);
                ],
              sample_cert )
        | `Finals reps ->
            if reps < 1 then bad "need at least one replication";
            let finals =
              Ssa.replicate ?pool:spec.Analysis.pool ~obs:spec.Analysis.obs m
                ~n ~x0 ~policy ~tmax:spec.Analysis.horizon ~reps ~seed
            in
            let mean =
              Array.init (Model.dim m) (fun c ->
                  Array.fold_left (fun acc x -> acc +. x.(c)) 0. finals
                  /. float_of_int reps)
            in
            ( Json.Obj
                [ ("finals", mat_json finals); ("mean", vec_json mean) ],
              sample_cert ))
    | Ctmc { mode; n; epsilon; truncation; max_states; times } ->
        finite_n (fun () ->
            eval_ctmc spec ~mode ~n ~epsilon ~truncation ~max_states ~times)
  with Invalid_argument m -> bad "%s" m

(* ------------------------------------------------------------------ *)
(* text rendering                                                     *)

let malformed what = invalid_arg ("Codec.render: malformed payload: " ^ what)

let get name j =
  match Json.member name j with Some v -> v | None -> malformed name

(* non-finite numbers travel as null *)
let to_num = function
  | Json.Num f -> f
  | Json.Null -> Float.nan
  | _ -> malformed "number"

let list name = function Json.Arr l -> l | _ -> malformed name

let vec name v = Array.of_list (List.map to_num (list name v))
let nums name j = vec name (get name j)
let rows name j = Array.of_list (List.map (vec name) (list name (get name j)))

let int_of name j = int_of_float (to_num (get name j))

let columns name j =
  let m = rows name j in
  List.init (Array.length m.(0)) (fun c -> Array.map (fun r -> r.(c)) m)

(* a null ledger entry stands for the unbounded side *)
let cert_of_json j =
  let b = get "budget" j in
  let side inf = function Json.Null -> inf | v -> to_num v in
  let line name = side infinity (get name b) in
  Cert.of_interval
    ~budget:
      (Cert.budget ~discretisation:(line "discretisation")
         ~truncation:(line "truncation") ~rounding:(line "rounding")
         ~optimiser:(line "optimiser") ())
    (Interval.make (side neg_infinity (get "lo" j)) (side infinity (get "hi" j)))

(* the itemised ledger of one result: a line for the enclosure, one per
   budget line (discretisation, truncation, rounding, optimiser) *)
let add_cert b name j =
  let c = cert_of_json j in
  Printf.bprintf b "# cert  %-28s value=[%g, %g] width=%g total=%g%s\n" name
    (Interval.lo c.value) (Interval.hi c.value) (Cert.width c) (Cert.total c)
    (if Cert.is_vacuous c then " VACUOUS" else "");
  List.iter
    (fun (line, v) -> Printf.bprintf b "# cert  %-28s %s=%g\n" name line v)
    (Cert.lines c)

let render spec op result cert =
  let out = Buffer.create 4096 and certs = Buffer.create 512 in
  let p fmt = Printf.bprintf out fmt in
  let names = Model.var_names spec.Analysis.model in
  let header first = p "%s\t%s\n" first (String.concat "\t" (Array.to_list names)) in
  (* one row per time: [%.5f] columns, then an optional [%.3g] one *)
  let series last cols =
    Array.iteri
      (fun j t ->
        p "%.3f" t;
        List.iter (fun c -> p "\t%.5f" c.(j)) cols;
        Option.iter (fun l -> p "\t%.3g" l.(j)) last;
        p "\n")
      (nums "times" result)
  in
  let per_var label =
    List.iteri
      (fun c j -> add_cert certs (label ^ names.(c)) j)
      (list "certs" (get "certs" result))
  in
  let states () = int_of "states" result in
  (match op with
  | Bounds { coord; _ } ->
      p "t\t%s_min\t%s_max\n" names.(coord) names.(coord);
      series None [ nums "lower" result; nums "upper" result ];
      add_cert certs "analysis.transient_bounds" cert
  | Hull_bounds _ ->
      let times = nums "times" result in
      let h = { Hull.times; lower = rows "lower" result; upper = rows "upper" result } in
      p "t";
      Array.iter (fun n -> p "\t%s_lo\t%s_hi" n n) names;
      p "\n";
      Array.iter
        (fun t ->
          p "%.3f" t;
          let lo = Hull.lower_at h t and hi = Hull.upper_at h t in
          Array.iteri (fun i _ -> p "\t%.5f\t%.5f" lo.(i) hi.(i)) names;
          p "\n")
        (Vec.linspace 0. spec.Analysis.horizon 11)
  | Steady _ ->
      let polygon =
        List.map (fun r -> (r.(0), r.(1))) (Array.to_list (rows "polygon" result))
      in
      let escaped = get "converged" result <> Json.Bool true in
      let iterations = int_of "iterations" result in
      p "# %s\n" (Birkhoff.result_to_string { polygon; iterations; escaped });
      p "%s\t%s\n" names.(0) names.(1);
      List.iter
        (fun (x, y) -> p "%.5f\t%.5f\n" x y)
        (Geometry.resample_boundary polygon 60)
  | Simulate { sample = `Trajectory _; _ } ->
      header "t";
      series None (columns "states" result)
  | Simulate { sample = `Finals _; _ } ->
      header "rep";
      let row label x =
        p "%s" label;
        Array.iter (p "\t%.5f") x;
        p "\n"
      in
      Array.iteri (fun i x -> row (string_of_int i) x) (rows "finals" result);
      row "mean" (nums "mean" result)
  | Ctmc { mode = `Envelope coord; _ } ->
      let var = names.(coord) and lost = nums "lost" result in
      p "# states=%d escaped<=%.3g\n" (states ()) (Array.fold_left Float.max 0. lost);
      p "t\t%s_mean\t%s_min\t%s_max\tescaped\n" var var var;
      series (Some lost)
        [ nums "mean" result; nums "lower" result; nums "upper" result ];
      add_cert certs ("ctmc.envelope." ^ var) cert
  | Ctmc { mode = `Transient _; _ } ->
      p "# states=%d\n" (states ());
      p "t\t%s\tescaped\n" (String.concat "\t" (Array.to_list names));
      series (Some (nums "lost" result)) (columns "mean" result);
      per_var "ctmc.transient."
  | Ctmc { mode = `Stationary _; _ } ->
      let mean = nums "mean" result in
      p "# states=%d\nvar\tmean\n" (states ());
      Array.iteri (fun c name -> p "%s\t%.5f\n" name mean.(c)) names;
      per_var "ctmc.stationary."
  | First_passage _ ->
      p "# states=%d mfpt in [%.5f, %.5f]\n" (states ())
        (to_num (get "mfpt_lower" result))
        (to_num (get "mfpt_upper" result));
      p "t\thit_min\thit_max\n";
      series None [ nums "hit_lower" result; nums "hit_upper" result ];
      add_cert certs "analysis.first_passage" cert);
  (Buffer.contents out, Buffer.contents certs)

(* ------------------------------------------------------------------ *)
(* responses                                                          *)

(* milliseconds rounded to microsecond precision: stable short JSON *)
let ms x = Json.Num (Float.round (x *. 1e3) /. 1e3)

let ok_response ~id ~cached ~wall_ms ~queue_wait_ms ~result ~cert =
  Json.to_string
    (Json.Obj
       [
         ("id", id);
         ("ok", Json.Bool true);
         ("cached", Json.Bool cached);
         ("wall_ms", ms wall_ms);
         ("queue_wait_ms", ms queue_wait_ms);
         ("result", result);
         ("cert", cert);
       ])

let error_response ?cert ~id ~kind msg =
  Json.to_string
    (Json.Obj
       ([
          ("id", id);
          ("ok", Json.Bool false);
          ( "error",
            Json.Obj [ ("kind", Json.Str kind); ("message", Json.Str msg) ] );
        ]
       @ match cert with None -> [] | Some c -> [ ("cert", c) ]))
