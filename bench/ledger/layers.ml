(* Per-layer numbers for the traced run: the Obs span and count events
   the programs already emit, summed per name, with self time taken
   from a static parent map; plus in-process timings of the request
   codec and of the compiled drift kernel. *)

module Json = Umf.Obs.Json
module Codec = Umf.Codec

(* the spans each span may run inside, as the call graph of lib/ has
   them.  A span none of whose parents occurs in the same trace is a
   top-level span: ctmc.state_space is one in a transient CLI run and
   a child of analysis.first_passage in a first-passage run. *)
let parents = function
  | "analysis.transient_bounds" | "analysis.hull_bounds"
  | "analysis.steady_state_region_2d" | "analysis.first_passage" ->
      [ "pool.serve" ]
  | "pontryagin.bound_series" | "uncertain.sweep" -> [ "analysis.transient_bounds" ]
  | "pontryagin.solve" -> [ "pontryagin.bound_series" ]
  | "hull.bounds" -> [ "analysis.hull_bounds" ]
  | "birkhoff.compute" -> [ "analysis.steady_state_region_2d" ]
  | "ode.integrate" | "ode.integrate_to" -> [ "uncertain.sweep"; "birkhoff.compute" ]
  | "ctmc.state_space" | "ctmc.assemble" | "ctmc.imprecise_sweep"
  | "ctmc.imprecise_sweep.adaptive" ->
      [ "analysis.first_passage" ]
  | _ -> []

type span = { name : string; start : float; stop : float }

type tally = { mutable calls : int; mutable total : float; mutable child : float }

(* spans and counter sums of one trace, across every unit fed in *)
type t = {
  tallies : (string, tally) Hashtbl.t;
  counters : (string, float) Hashtbl.t;
  mutable top_level : float;  (** Seconds in spans with no parent. *)
}

let create () = { tallies = Hashtbl.create 32; counters = Hashtbl.create 32; top_level = 0. }

let tally t name =
  match Hashtbl.find_opt t.tallies name with
  | Some x -> x
  | None ->
      let x = { calls = 0; total = 0.; child = 0. } in
      Hashtbl.replace t.tallies name x;
      x

(* one unit of work (a CLI run, or a daemon's traced prefix): the
   events of an NDJSON trace that end at or after [after] seconds *)
let add_trace ?(after = Float.neg_infinity) t file =
  let spans = ref [] in
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let j = Json.of_string (input_line ic) in
          let str k = match Json.member k j with Some (Json.Str s) -> s | _ -> "" in
          let num k = match Json.member k j with Some (Json.Num f) -> f | _ -> Float.nan in
          if num "t" >= after then
            match str "ev" with
            | "span" ->
                spans := { name = str "name"; start = num "t" -. num "dur"; stop = num "t" } :: !spans
            | "count" ->
                let n = str "name" in
                Hashtbl.replace t.counters n
                  (num "v" +. Option.value ~default:0. (Hashtbl.find_opt t.counters n))
            | _ -> ()
        done
      with End_of_file -> ());
  let spans = Array.of_list !spans in
  let by_name = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      Hashtbl.replace by_name s.name
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_name s.name)))
    spans;
  (* with two candidate parents the enclosing instance decides; both
     run under the same request clock, so containment is exact *)
  let encloses s p =
    List.exists
      (fun q -> q.start <= s.start +. 1e-7 && s.stop <= q.stop +. 1e-7)
      (Option.value ~default:[] (Hashtbl.find_opt by_name p))
  in
  Array.iter
    (fun s ->
      let dur = s.stop -. s.start in
      let x = tally t s.name in
      x.calls <- x.calls + 1;
      x.total <- x.total +. dur;
      match List.filter (Hashtbl.mem by_name) (parents s.name) with
      | [] -> t.top_level <- t.top_level +. dur
      | [ p ] -> (tally t p).child <- (tally t p).child +. dur
      | p :: _ as ps ->
          let p = Option.value ~default:p (List.find_opt (encloses s) ps) in
          (tally t p).child <- (tally t p).child +. dur)
    spans

let calls t name = match Hashtbl.find_opt t.tallies name with Some x -> x.calls | None -> 0

let total_s t name =
  match Hashtbl.find_opt t.tallies name with Some x -> x.total | None -> 0.

let self_s t name =
  match Hashtbl.find_opt t.tallies name with Some x -> x.total -. x.child | None -> 0.

let counter t name = Option.value ~default:0. (Hashtbl.find_opt t.counters name)

(* ------------------------------------------------------------------ *)
(* the layer rows                                                     *)

type row = {
  layer : string;
  name : string;
  calls : int;
  total_ms : float;
  self_ms : float;
  units : float;  (** Work done, in the row's own unit of work. *)
  ns_per_unit : float;
}

let layer_of name =
  let prefix p = String.starts_with ~prefix:p name in
  if prefix "pool." then "Runtime.Pool"
  else if prefix "analysis." then "Analysis"
  else if prefix "pontryagin." then "Pontryagin"
  else if prefix "ode." then "Ode"
  else if prefix "hull." then "Hull"
  else if prefix "uncertain." then "Uncertain"
  else if prefix "birkhoff." then "Birkhoff"
  else if prefix "ctmc.state_space" || prefix "ctmc.assemble" then "Ctmc_of_population"
  else if prefix "ctmc.imprecise" then "Imprecise_ctmc"
  else if prefix "ctmc." then "Transient"
  else "other"

(* the work counter each span does its work in *)
let unit_of = function
  | "pontryagin.solve" -> "pontryagin.hamiltonian_evals"
  | "hull.bounds" -> "hull.face_evals"
  | "uncertain.sweep" -> "uncertain.thetas"
  | "birkhoff.compute" -> "birkhoff.iterations"
  | "ode.integrate" -> "ode.steps"
  | "ctmc.state_space" -> "ctmc.states"
  | "ctmc.assemble" -> "ctmc.nnz"
  | "ctmc.expectation_series" | "ctmc.uniformization" -> "ctmc.spmv_flops"
  | "ctmc.imprecise_sweep.adaptive" -> "first_passage.sweep_steps"
  | "pool.serve" -> "pool.serve.tasks"
  | _ -> ""

let per ns total units = if units > 0. then total *. ns /. units else 0.

let rows t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.tallies []
  |> List.sort compare
  |> List.map (fun name ->
         let units = match unit_of name with "" -> 0. | u -> counter t u in
         {
           layer = layer_of name;
           name;
           calls = calls t name;
           total_ms = total_s t name *. 1e3;
           self_ms = self_s t name *. 1e3;
           units;
           ns_per_unit = per 1e9 (self_s t name) units;
         })

(* the per-layer metrics the trace gives, by the names BENCHMARK.json
   lists; layers the workload never reaches read 0 *)
let metrics t =
  let ms n = total_s t n *. 1e3 in
  let c = counter t in
  let acc = c "ode.rk45.accepted" and rej = c "ode.rk45.rejected" in
  let series = total_s t "ctmc.expectation_series" +. total_s t "ctmc.uniformization" in
  let sweeps = total_s t "ctmc.imprecise_sweep" +. total_s t "ctmc.imprecise_sweep.adaptive" in
  List.concat_map
    (fun op ->
      let n = "analysis." ^ op in
      [
        (n ^ ".calls", float_of_int (calls t n), "count");
        (n ^ ".total_ms", ms n, "ms");
        (n ^ ".self_ms", self_s t n *. 1e3, "ms");
      ])
    [ "transient_bounds"; "hull_bounds"; "steady_state_region_2d"; "first_passage" ]
  @ [
      ("pontryagin.solve_ms", ms "pontryagin.solve", "ms");
      ("pontryagin.sweeps", c "pontryagin.sweeps", "count");
      ("pontryagin.hamiltonian_evals", c "pontryagin.hamiltonian_evals", "count");
      ( "pontryagin.ns_per_hamiltonian_eval",
        per 1e9 (self_s t "pontryagin.solve") (c "pontryagin.hamiltonian_evals"),
        "ns" );
      ("pontryagin.nonconverged", c "pontryagin.nonconverged", "count");
      ("ode.steps", c "ode.steps", "count");
      ("ode.rk45.accepted", acc, "count");
      ("ode.rk45.rejected", rej, "count");
      ("ode.rk45.reject_ratio", per 1. rej (acc +. rej), "fraction");
      ("hull.bounds_ms", ms "hull.bounds", "ms");
      ("hull.face_evals", c "hull.face_evals", "count");
      ("hull.ns_per_face_eval", per 1e9 (self_s t "hull.bounds") (c "hull.face_evals"), "ns");
      ("uncertain.thetas", c "uncertain.thetas", "count");
      ("uncertain.us_per_theta", per 1e6 (total_s t "uncertain.sweep") (c "uncertain.thetas"), "us");
      ("birkhoff.compute_ms", ms "birkhoff.compute", "ms");
      ("birkhoff.iterations", c "birkhoff.iterations", "count");
      ("ctmc.state_space_ms", ms "ctmc.state_space", "ms");
      ("ctmc.states", c "ctmc.states", "count");
      ("ctmc.ns_per_state", per 1e9 (self_s t "ctmc.state_space") (c "ctmc.states"), "ns");
      ("ctmc.assemble_ms", ms "ctmc.assemble", "ms");
      ("ctmc.nnz", c "ctmc.nnz", "count");
      ("ctmc.ns_per_nnz", per 1e9 (self_s t "ctmc.assemble") (c "ctmc.nnz"), "ns");
      ("ctmc.series_ms", series *. 1e3, "ms");
      ("ctmc.terms", c "ctmc.terms", "count");
      ("ctmc.spmv_flops", c "ctmc.spmv_flops", "count");
      ("ctmc.ns_per_flop", per 1e9 series (c "ctmc.spmv_flops"), "ns");
      ("ctmc.power_iters", c "ctmc.power_iters", "count");
      ("ctmc.imprecise_sweep_ms", sweeps *. 1e3, "ms");
      ("first_passage.sweep_steps", c "first_passage.sweep_steps", "count");
      ("ctmc.us_per_sweep_step", per 1e6 sweeps (c "first_passage.sweep_steps"), "us");
    ]

(* ------------------------------------------------------------------ *)
(* in-process timings                                                 *)

(* seconds per call of [f], repeated for at least [min_s] *)
let per_call ?(min_s = 2e-4) f =
  let t0 = Proc.now () in
  let n = ref 0 in
  while Proc.now () -. t0 < min_s do
    ignore (Sys.opaque_identity (f ()));
    incr n
  done;
  (Proc.now () -. t0) /. float_of_int !n

(* median microseconds per request of each wire-path stage, on the
   workload's own (request line, response line) pairs *)
let codec_metrics pairs =
  let models = Hashtbl.create 16 in
  let resolve name =
    match Hashtbl.find_opt models name with
    | Some m -> Ok m
    | None ->
        Result.map
          (fun m ->
            ignore (Umf.Model.drift_plan m);
            Hashtbl.replace models name m;
            m)
          (Umf.Registry.find name)
  in
  let samples =
    List.filter_map
      (fun (line, resp) ->
        match (Codec.of_line line, Json.of_string resp) with
        | Ok (Codec.Analyze req), j -> (
            match (Json.member "result" j, Json.member "cert" j) with
            | Some result, Some cert ->
                let spec = Codec.spec_of_request ~resolve req in
                Some
                  [|
                    per_call (fun () -> Codec.of_line line);
                    per_call (fun () -> Codec.spec_of_request ~resolve req);
                    per_call (fun () -> Codec.fingerprint spec req.Codec.op);
                    per_call (fun () ->
                        Codec.ok_response ~id:req.Codec.id ~cached:true ~wall_ms:0.1
                          ~queue_wait_ms:0. ~result ~cert);
                  |]
            | _ -> None)
        | _ | (exception Failure _) -> None)
      pairs
    |> Array.of_list
  in
  let med k = Stats.median (Array.map (fun s -> s.(k) *. 1e6) samples) in
  let med k = if Array.length samples = 0 then 0. else med k in
  [
    ("codec.of_line_us", med 0, "us");
    ("codec.spec_us", med 1, "us");
    ("codec.fingerprint_us", med 2, "us");
    ("codec.render_us", med 3, "us");
  ]

(* Tape.Plan.run and run_batch on each model's compiled drift over
   4096 points of its state and parameter boxes *)
let tape_metrics () =
  let rows = 4096 in
  List.concat_map
    (fun name ->
      let m = Umf.Registry.find_exn name in
      let plan = Umf.Model.drift_plan m in
      let st = Random.State.make [| rows |] in
      let point (b : Umf.Optim.Box.t) =
        Array.mapi
          (fun i lo ->
            let hi = b.Umf.Optim.Box.hi.(i) in
            if Float.is_finite lo && Float.is_finite hi then Workloads.uniform st lo hi
            else Random.State.float st 1.)
          b.Umf.Optim.Box.lo
      in
      let xs = Array.init rows (fun _ -> point (Umf.Model.clip m)) in
      let ths = Array.init rows (fun _ -> point (Umf.Model.theta m)) in
      let out = Array.make (Umf.Model.dim m) 0. in
      let scalar () =
        for i = 0 to rows - 1 do
          Umf.Tape.Plan.run plan ~x:xs.(i) ~th:ths.(i) ~out
        done
      in
      let xm = Umf.Mat.of_arrays xs and tm = Umf.Mat.of_arrays ths in
      let om = Umf.Mat.zeros rows (Umf.Model.dim m) in
      let batch () = Umf.Tape.Plan.run_batch plan ~xs:xm ~ths:tm ~out:om in
      let ns f =
        f ();
        Stats.median
          (Array.init 9 (fun _ ->
               let t0 = Proc.now () in
               f ();
               (Proc.now () -. t0) *. 1e9 /. float_of_int rows))
      in
      [
        (Printf.sprintf "tape.%s.run_ns_per_eval" name, ns scalar, "ns");
        (Printf.sprintf "tape.%s.run_batch_ns_per_eval" name, ns batch, "ns");
      ])
    Umf.Registry.names
