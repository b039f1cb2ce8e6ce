(* Traced end-to-end SIR analysis (the @obs-smoke alias): runs an
   uncertain transient-bounds sweep on a 2-domain pool, an imprecise
   (Pontryagin) sweep, and a Birkhoff region, all under one NDJSON
   trace, then re-parses every line and checks the event schema and
   span coverage.  Fails loudly on any malformed or missing event. *)
open Umf

let fail msg =
  prerr_endline ("obs-smoke: " ^ msg);
  exit 1

let () =
  let file = Filename.temp_file "umf_obs_smoke" ".ndjson" in
  let p = Sir.default_params in
  let model = Sir.make p in
  let agg = Obs.Agg.create () in
  let oc = open_out file in
  let tr = Obs.Trace.to_channel oc in
  let obs = Obs.make ~agg ~trace:tr () in
  let times = [| 0.5; 1. |] in
  Runtime.Pool.with_pool ~domains:2 (fun pool ->
      let su =
        Analysis.spec ~scenario:(Analysis.Uncertain 4) ~steps:60 ~pool ~obs
          model
      in
      ignore (Analysis.transient_bounds ~times su ~x0:Sir.x0 ~coord:1));
  let si = Analysis.spec ~steps:60 ~obs model in
  ignore (Analysis.transient_bounds ~times si ~x0:Sir.x0 ~coord:1);
  ignore
    (Analysis.steady_state_region_2d ~x_start:Sir.x0 (Analysis.spec ~obs model));
  Obs.Trace.flush tr;
  close_out oc;
  (* every line must parse as a JSON object obeying the event schema *)
  let ic = open_in file in
  let events = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then
         match Obs.Json.of_string line with
         | Obs.Json.Obj _ as ev -> events := ev :: !events
         | _ -> fail ("non-object line: " ^ line)
         | exception Failure m -> fail ("unparseable line (" ^ m ^ "): " ^ line)
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove file;
  let events = List.rev !events in
  if events = [] then fail "empty trace";
  let str field ev =
    match Obs.Json.member field ev with
    | Some (Obs.Json.Str s) -> s
    | _ -> fail ("event without string field " ^ field)
  in
  let num field ev =
    match Obs.Json.member field ev with
    | Some (Obs.Json.Num v) -> v
    | _ -> fail ("event without numeric field " ^ field)
  in
  List.iter
    (fun ev ->
      ignore (str "name" ev);
      ignore (num "t" ev);
      match str "ev" ev with
      | "span" -> if num "dur" ev < 0. then fail "negative span duration"
      | "count" | "gauge" -> ignore (num "v" ev)
      | k -> fail ("unknown event kind " ^ k))
    events;
  let has name =
    List.exists
      (fun ev -> Obs.Json.member "name" ev = Some (Obs.Json.Str name))
      events
  in
  List.iter
    (fun name -> if not (has name) then fail ("no event named " ^ name))
    [
      "analysis.transient_bounds";
      "uncertain.sweep";
      "ode.steps";
      "pontryagin.solve";
      "pontryagin.sweeps";
      "birkhoff.compute";
      "pool.uncertain-sweep";
    ];
  Printf.printf "obs-smoke OK (%d events, %d span rows aggregated)\n"
    (List.length events)
    (List.length (Obs.Agg.span_stats agg))
