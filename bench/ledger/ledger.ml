(* The layered ledger: a benchmark of bin/umf_serve.exe (over its stdio
   NDJSON pipe) and bin/umf_cli.exe ctmc (one child process at a time),
   driven from outside by one process with at most two threads.

     ledger.exe run --workload mf-solve --seed 1 --seconds 15 --trace 0
     ledger.exe run --workload open-mix --seed 1 --trace 1 --out runs.ndjson
     ledger.exe compare bench/ledger/baseline.json runs.ndjson
     ledger.exe baseline set-a.ndjson set-b.ndjson > bench/ledger/baseline.json
     ledger.exe smoke

   README.md records the workloads, why each exists, and the metrics. *)

module Json = Umf.Obs.Json
open Cmdliner

let workloads = [ "mf-solve"; "ctmc-cli"; "open-mix" ]

let num f = Json.Num f

let str s = Json.Str s

(* the commit of the checkout, read from .git without running git *)
let commit () =
  let read f = try Some (String.trim (In_channel.with_open_text f In_channel.input_all)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some h when String.starts_with ~prefix:"ref: " h -> (
      let r = String.sub h 5 (String.length h - 5) in
      match read (Filename.concat ".git" r) with
      | Some c -> c
      | None ->
          Option.value ~default:"unknown"
            (Option.bind (read ".git/packed-refs") (fun p ->
                 List.find_map
                   (fun l ->
                     match String.split_on_char ' ' l with
                     | [ c; r' ] when r' = r -> Some c
                     | _ -> None)
                   (String.split_on_char '\n' p))))
  | Some h -> h
  | None -> "unknown"

let metrics_json metrics =
  Json.Obj (List.map (fun (n, v, u) -> (n, Json.Obj [ ("value", num v); ("unit", str u) ])) metrics)

let row_json w (r : Layers.row) =
  Json.Obj
    [
      ("workload", str w);
      ("layer", str r.Layers.layer);
      ("name", str r.name);
      ("calls", num (float_of_int r.calls));
      ("total_ms", num r.total_ms);
      ("self_ms", num r.self_ms);
      ("units", num r.units);
      ("ns_per_unit", num r.ns_per_unit);
    ]

(* one run: inputs from the seed, the timed (or traced) window, every
   metric as `workload metric value unit', then the result object as
   the last line.  Exits 1 when an output check failed. *)
let run ?(quiet = false) ~workload ~seed ~seconds ~traced ~tiny ~out () =
  let r = Drive.run ~workload ~seed ~seconds ~traced ~tiny in
  let samples = r.Drive.samples in
  let attempted = Array.length samples in
  let failed = attempted - Drive.completed samples in
  let kinds =
    List.sort_uniq compare
      (List.filter_map (fun s -> if s.Drive.ok then None else Some s.Drive.kind) (Array.to_list samples))
  in
  let count k = Array.fold_left (fun n s -> if (not s.Drive.ok) && s.Drive.kind = k then n + 1 else n) 0 samples in
  let correct = r.problems = [] && List.for_all (fun (_, v, _) -> Float.is_finite v) r.metrics in
  List.iter (fun p -> Printf.eprintf "check failed: %s\n" p) (List.rev r.problems);
  let printf fmt = Printf.ksprintf (fun s -> if not quiet then print_string s) fmt in
  List.iter (fun k -> printf "# failures %s %d\n" k (count k)) kinds;
  List.iter
    (fun (r : Layers.row) ->
      printf "# row %s %s %s calls=%d total_ms=%.3f self_ms=%.3f units=%.0f ns_per_unit=%.3f\n"
        workload r.Layers.layer r.name r.calls r.total_ms r.self_ms r.units r.ns_per_unit)
    r.rows;
  List.iter
    (fun (n, xs) ->
      printf "# values %s %s %s\n" workload n
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.6g") xs))))
    r.values;
  List.iter (fun (n, v, u) -> printf "%s %s %.6g %s\n" workload n v u) r.metrics;
  let summary =
    [
      ("correct", Json.Bool correct);
      ("attempted", num (float_of_int attempted));
      ("failed", num (float_of_int failed));
      ("metrics", metrics_json r.metrics);
    ]
  in
  Option.iter
    (fun file ->
      let record =
        Json.Obj
          ([
             ("workload", str workload);
             ("seed", num (float_of_int seed));
             ("seconds", num seconds);
             ("trace", Json.Bool traced);
             ("commit", str (commit ()));
             ("cores", num (float_of_int (Domain.recommended_domain_count ())));
             ("ocaml", str Sys.ocaml_version);
             ("sizes", Json.Obj (List.map (fun (k, v) -> (k, num v)) r.sizes));
             ("digest", str r.digest);
             ("failures", Json.Obj (List.map (fun k -> (k, num (float_of_int (count k)))) kinds));
             ("problems", Json.Arr (List.map str r.problems));
           ]
          @ summary
          @ [
              ( "values",
                Json.Obj
                  (List.map
                     (fun (n, xs) -> (n, Json.Arr (Array.to_list (Array.map num xs))))
                     r.values) );
              ("rows", Json.Arr (List.map (row_json workload) r.rows));
            ])
      in
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 file (fun oc ->
          output_string oc (Json.to_string record ^ "\n")))
    out;
  printf "%s\n" (Json.to_string (Json.Obj summary));
  (correct, r)

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                     *)

type declared = { name : string; unit_ : string; better : string; bound : float }

let declared key =
  let j = Json.of_string (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) in
  match Json.member key j with
  | Some (Json.Arr l) ->
      List.map
        (fun m ->
          let s k = match Json.member k m with Some (Json.Str s) -> s | _ -> "" in
          let bound = match Json.member "bound" m with Some (Json.Num b) -> b | _ -> Float.nan in
          { name = s "name"; unit_ = s "unit"; better = s "better"; bound })
        l
  | _ -> failwith ("BENCHMARK.json: no " ^ key)

(* ------------------------------------------------------------------ *)
(* compare                                                            *)

(* a file of runs: the NDJSON `run --out' appends, or a baseline
   document {"sets":[{"label":…,"runs":[…]},…]} holding several *)
let load file =
  let text = In_channel.with_open_text file In_channel.input_all in
  match Json.of_string text with
  | Json.Obj _ as j when Json.member "sets" j <> None -> (
      match Json.member "sets" j with
      | Some (Json.Arr sets) ->
          List.map
            (fun s ->
              let label = match Json.member "label" s with Some (Json.Str l) -> l | _ -> "?" in
              let runs = match Json.member "runs" s with Some (Json.Arr r) -> r | _ -> [] in
              (file ^ "#" ^ label, runs))
            sets
      | _ -> [])
  | _ | (exception Failure _) ->
      [ (file, List.map Json.of_string (List.filter (( <> ) "") (String.split_on_char '\n' text))) ]

let field k j = Json.member k j

let runs_of workload runs =
  List.filter
    (fun r -> field "workload" r = Some (str workload) && field "trace" r = Some (Json.Bool false))
    runs

let value name r =
  match Option.bind (field "metrics" r) (field name) with
  | Some m -> ( match field "value" m with Some (Json.Num v) -> Some v | _ -> None)
  | None -> None

(* the verdict rule: a gain needs at least 10 pairs, a win in 9 of 10
   of them and a median shift beyond the parent's quartile spread; a
   spread wider than the bound is unresolved unless every run of the
   change beats every run of the parent *)
let verdict (d : declared) a b =
  let better x y = if d.better = "higher" then x > y else x < y in
  let qa1, ma, qa3 = Stats.quartiles a and _, mb, _ = Stats.quartiles b in
  let pairs = Int.min (Array.length a) (Array.length b) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better b.(i) a.(i) then incr wins
  done;
  let worse = (if d.better = "higher" then ma -. mb else mb -. ma) /. ma in
  let spread = (qa3 -. qa1) /. ma in
  let all_better = Array.for_all (fun y -> Array.for_all (fun x -> better y x) a) b in
  if pairs >= 10 && 10 * !wins >= 9 * pairs && Float.abs (mb -. ma) > qa3 -. qa1 && better mb ma
  then "improved"
  else if spread > d.bound && not all_better then "unresolved"
  else if worse > d.bound then "regressed"
  else "unchanged"

let compare_files files =
  let e2e = declared "end_to_end" in
  let groups = List.concat_map load files in
  match groups with
  | [] | [ _ ] -> failwith "compare needs at least two sets of runs"
  | (base_label, base) :: rest ->
      let bad = ref false in
      List.iter
        (fun (label, runs) ->
          Printf.printf "== %s vs %s\n" label base_label;
          Printf.printf "%-10s %-16s %12s %7s %12s %12s %12s %9s  %s\n" "workload" "metric"
            "base_med" "spread" "q1" "q3" "median" "delta" "verdict";
          List.iter
            (fun w ->
              let a = runs_of w base and b = runs_of w runs in
              if a <> [] && b <> [] then begin
                List.iter
                  (fun d ->
                    let vals rs = Array.of_list (List.filter_map (value d.name) rs) in
                    let va = vals a and vb = vals b in
                    if va <> [||] && vb <> [||] then begin
                      let q1, mb, q3 = Stats.quartiles vb in
                      let qa1, ma, qa3 = Stats.quartiles va in
                      let v = verdict d va vb in
                      if v = "regressed" then bad := true;
                      Printf.printf "%-10s %-16s %12.4g %7.3f %12.4g %12.4g %12.4g %+8.1f%%  %s\n" w
                        d.name ma ((qa3 -. qa1) /. ma) q1 q3 mb ((mb -. ma) /. ma *. 100.) v
                    end)
                  e2e;
                let digests rs =
                  List.filter_map
                    (fun r ->
                      match (field "seed" r, field "digest" r) with
                      | Some (Json.Num s), Some (Json.Str d) -> Some (s, d)
                      | _ -> None)
                    rs
                in
                let da = digests a in
                let changed =
                  List.filter
                    (fun (s, d) -> match List.assoc_opt s da with Some d' -> d <> d' | None -> false)
                    (digests b)
                in
                if changed <> [] then bad := true;
                Printf.printf "%-10s %-16s %s\n" w "digest"
                  (if changed = [] then "identical on every shared seed"
                   else Printf.sprintf "CHANGED on %d seeds" (List.length changed))
              end)
            workloads)
        rest;
      if !bad then 1 else 0

(* the committed baseline: each file of `run --out' records becomes
   one set, with the commit, host and inputs its runs were made on *)
let baseline files =
  let set file =
    let runs = snd (List.hd (load file)) in
    let first k = match runs with r :: _ -> Option.value ~default:Json.Null (field k r) | [] -> Json.Null in
    let per_workload k =
      Json.Obj
        (List.filter_map
           (fun w ->
             match runs_of w runs with r :: _ -> Option.map (fun v -> (w, v)) (field k r) | [] -> None)
           workloads)
    in
    Json.Obj
      [
        ("label", str (Filename.remove_extension (Filename.basename file)));
        ("commit", first "commit");
        ("cores", first "cores");
        ("ocaml", first "ocaml");
        ("seconds", first "seconds");
        ( "seeds",
          Json.Arr
            (List.sort_uniq compare (List.filter_map (field "seed") runs)) );
        ("sizes", per_workload "sizes");
        ("runs", Json.Arr runs);
      ]
  in
  print_endline (Json.to_string (Json.Obj [ ("sets", Json.Arr (List.map set files)) ]));
  0

(* ------------------------------------------------------------------ *)
(* smoke                                                              *)

(* every workload at a tiny size, untraced and traced: each metric
   BENCHMARK.json names is printed with its unit, every output check
   passes, and traced top-level spans fit in the wall time *)
let smoke () =
  let e2e = declared "end_to_end" and layers = declared "per_layer" in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun workload ->
      List.iter
        (fun traced ->
          let ok, r = run ~quiet:true ~workload ~seed:1 ~seconds:0.1 ~traced ~tiny:true ~out:None () in
          if not ok then err "%s (trace %b): checks failed" workload traced;
          if Drive.completed r.Drive.samples <> Array.length r.Drive.samples then
            err "%s (trace %b): failed requests" workload traced;
          List.iter
            (fun d ->
              match List.find_opt (fun (n, _, _) -> n = d.name) r.Drive.metrics with
              | Some (_, _, u) when u = d.unit_ -> ()
              | Some (_, _, u) -> err "%s: %s has unit %s, BENCHMARK.json says %s" workload d.name u d.unit_
              | None -> err "%s: %s not printed" workload d.name)
            (if traced then layers else e2e))
        [ false; true ])
    workloads;
  List.iter (fun e -> Printf.eprintf "smoke: %s\n" e) (List.rev !errors);
  if !errors = [] then (print_endline "smoke: ok"; 0) else 1

(* ------------------------------------------------------------------ *)
(* command line                                                       *)

let run_cmd =
  let workload =
    Arg.(required & opt (some (enum (List.map (fun w -> (w, w)) workloads))) None
         & info [ "workload" ] ~docv:"W" ~doc:"Workload to run.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Input seed.") in
  let seconds =
    Arg.(value & opt float 15. & info [ "seconds" ] ~docv:"T"
         ~doc:"Measured window; closed loops finish the pass in flight.")
  in
  let trace =
    Arg.(value & opt (enum [ ("0", false); ("1", true) ]) false & info [ "trace" ] ~docv:"0|1"
         ~doc:"1: the traced run, which reports the per-layer metrics.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
         ~doc:"Append the full run record to $(docv) as one NDJSON line.")
  in
  let go workload seed seconds traced out =
    let ok, _ = run ~workload ~seed ~seconds ~traced ~tiny:false ~out () in
    if ok then 0 else 1
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one workload.")
    Term.(const go $ workload $ seed $ seconds $ trace $ out)

let compare_cmd =
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare sets of runs against the first: medians, quartiles, deltas and verdicts.")
    Term.(const compare_files $ files)

let baseline_cmd =
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "baseline"
       ~doc:"Gather files of `run --out' records into one baseline document, a set per file.")
    Term.(const baseline $ files)

let smoke_cmd =
  Cmd.v (Cmd.info "smoke" ~doc:"Every workload at a tiny size, with its checks.")
    Term.(const smoke $ const ())

let () =
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "ledger" ~doc:"layered benchmark of umf_serve and umf_cli ctmc")
          [ run_cmd; compare_cmd; baseline_cmd; smoke_cmd ]))
