(* The three workloads, each driven against the programs under test.

   A run sets up [setups] times on fresh processes and reports the
   median set-up time; the last daemon set up serves the rest of the
   run.  One untimed window warms it up (heap grown, pages touched),
   then windows follow back to back for the run's seconds.  A window is
   one pass over the workload's inputs in a fresh order (open-mix: one
   three-step arrival schedule).  Every timed metric is computed per
   window and reported as its median over the windows: the shared
   host's speed swings by tens of percent from one second to the next,
   and a median shrugs off a slow spell that a pooled sample or a mean
   would absorb.  The traced run times one window untraced and replays
   it against traced programs. *)

module Json = Umf.Obs.Json
module Codec = Umf.Codec
module W = Workloads

(* fresh set-ups per run; setup_s is their median *)
let setups = 15

type sample = {
  lat : float;  (** Seconds from send (open loop: from when due) to answer. *)
  ok : bool;
  kind : string;  (** Failure kind; "" when ok. *)
  cached : bool;
  wall_ms : float;  (** The daemon's handler time; nan for CLI runs. *)
  queue_ms : float;
}

type window = {
  samples : sample array;  (** Every request of the window. *)
  timed : sample array;  (** What its latency percentiles cover. *)
  wall_s : float;
  cpu_s : float;  (** CPU of the program under test over the window. *)
}

type metric = string * float * string

type result = {
  samples : sample array;  (** Every request attempted. *)
  problems : string list;  (** Failed output checks. *)
  digest : string;
  sizes : (string * float) list;
  metrics : metric list;
  values : (string * float array) list;  (** What each end-to-end median is taken over. *)
  rows : Layers.row list;
}

let timed f =
  let t0 = Proc.now () in
  let x = f () in
  (Proc.now () -. t0, x)

(* ------------------------------------------------------------------ *)
(* output checks                                                      *)

(* The first answer to each input is validated in full; every later
   answer must repeat it byte for byte, whether it came from the cache,
   a recomputation, another daemon or a traced one. *)
type checker = {
  first : (int, string) Hashtbl.t;
  mutable problems : string list;
  mutable count : int;
}

let checker () = { first = Hashtbl.create 256; problems = []; count = 0 }

let problem c msg =
  c.count <- c.count + 1;
  if c.count <= 20 then c.problems <- msg :: c.problems

let judge c i out ~validate =
  match Hashtbl.find_opt c.first i with
  | None ->
      List.iter (fun p -> problem c (Printf.sprintf "input %d: %s" i p)) (validate ());
      Hashtbl.replace c.first i out
  | Some o ->
      if not (String.equal o out) then
        problem c (Printf.sprintf "input %d: answer differs from its first answer" i)

(* digest of every input's answer, timing fields excluded *)
let digest c =
  Hashtbl.fold (fun i p acc -> (i, p) :: acc) c.first []
  |> List.sort compare
  |> List.map (fun (i, p) -> Printf.sprintf "%d\n%s\n" i p)
  |> String.concat ""
  |> Digest.string |> Digest.to_hex

let failed kind =
  { lat = Float.nan; ok = false; kind; cached = false; wall_ms = Float.nan; queue_ms = Float.nan }

let daemon_sample c ~op i lat resp =
  match Checks.payload resp with
  | None -> { (failed (Checks.error_kind resp)) with lat }
  | Some p ->
      judge c i p ~validate:(fun () -> Checks.response_problems ~op resp);
      {
        lat;
        ok = true;
        kind = "";
        cached = Checks.is_cached resp;
        wall_ms = Checks.number resp "wall_ms";
        queue_ms = Checks.number resp "queue_wait_ms";
      }

(* ------------------------------------------------------------------ *)
(* end-to-end metrics                                                 *)

(* a failed request misses every latency limit: it counts as its
   deadline (daemon 10 s, CLI 30 s) *)
let latencies_ms ~limit samples =
  Array.map (fun s -> if s.ok then s.lat *. 1e3 else limit) samples

let completed samples =
  Array.fold_left (fun n s -> if s.ok then n + 1 else n) 0 samples

let all_samples windows = Array.concat (List.map (fun (w : window) -> w.samples) windows)

(* an untraced run: the median set-up, each timed metric's median over
   the windows, and the peak resident set *)
let timed_result c ~limit ~sizes ~setup ~rss_mb ~warm_up windows =
  let ws = Array.of_list windows in
  let per f = Array.map f ws in
  let pct q (w : window) = Stats.hd_quantile (latencies_ms ~limit w.timed) q in
  let n (w : window) = float_of_int (completed w.samples) in
  let values =
    [
      ("setup_s", setup, "s");
      ("latency_p50_ms", per (pct 0.5), "ms");
      ("latency_p90_ms", per (pct 0.9), "ms");
      ("throughput_rps", per (fun w -> n w /. w.wall_s), "req/s");
      ("cpu_ms_per_req", per (fun w -> w.cpu_s *. 1e3 /. n w), "ms");
      ("peak_rss_mb", [| rss_mb |], "MB");
    ]
  in
  {
    samples = Array.append warm_up (all_samples windows);
    problems = c.problems;
    digest = digest c;
    sizes = sizes @ [ ("windows", float_of_int (Array.length ws)) ];
    metrics = List.map (fun (name, xs, unit) -> (name, Stats.median xs, unit)) values;
    values = List.map (fun (name, xs, _) -> (name, xs)) values;
    rows = [];
  }

let traced_result c ~sizes ~samples ~layers metrics =
  { samples; problems = c.problems; digest = digest c; sizes; metrics; values = []; rows = Layers.rows layers }

(* windows back to back for about [seconds]; another starts only if one
   as long as the median so far would end in time *)
let windows ~seconds next =
  let t0 = Proc.now () in
  let rec go acc lengths =
    let left = seconds -. (Proc.now () -. t0) in
    if acc <> [] && Stats.median (Array.of_list lengths) > left then List.rev acc
    else
      let length, w = timed next in
      go (w :: acc) (length :: lengths)
  in
  go [] []

(* one pass over [n] inputs in a fresh order; [serve i] answers input
   [i] *)
let pass ~st ~n serve =
  let order = Array.init n Fun.id in
  W.shuffle st order;
  let t0 = Proc.now () in
  let served = Array.map (fun i -> (i, serve i)) order in
  (served, Proc.now () -. t0)

(* ------------------------------------------------------------------ *)
(* the daemon                                                         *)

let ok_or_fail what resp =
  if Checks.find resp "\"ok\":true" 0 < 0 then failwith (what ^ " failed: " ^ resp)

(* spawn a daemon and bring it to ready: answering, and every model's
   plan compiled *)
let ready args =
  let t0 = Proc.now () in
  let d = Proc.spawn_daemon args in
  ok_or_fail "ping" (Proc.call d {|{"id":0,"op":"ping"}|});
  Array.iter
    (fun m -> ok_or_fail ("warm-up of " ^ m) (Proc.call d (W.line ~id:0 (W.warm_up m))))
    W.models;
  (d, Proc.now () -. t0)

(* [setups] fresh daemons brought to ready; the last one is kept *)
let set_up args =
  let times = Array.make setups 0. in
  let rec go k =
    let d, t = ready args in
    times.(k) <- t;
    if k = setups - 1 then d
    else begin
      ignore (Proc.stop_daemon d);
      go (k + 1)
    end
  in
  let d = go 0 in
  (d, times)

(* [f ()], then daemon [d] stopped on every path; with its peak
   resident set *)
let stopping d f =
  match f () with
  | x -> (x, (Proc.stop_daemon d).Proc.rss_mb)
  | exception e ->
      ignore (Proc.stop_daemon d);
      raise e

(* [body ()] on daemon [d], with the daemon's CPU over it *)
let with_cpu d body =
  let cpu0 = Proc.cpu_seconds d.Proc.pid in
  let x = body () in
  (x, Proc.cpu_seconds d.Proc.pid -. cpu0)

let serve_args ~jobs extra = [ "--jobs"; string_of_int jobs ] @ extra

(* a traced daemon running [body] after its set-up and warm-up.  Trace
   times count from the daemon's own start, which follows the spawn by
   far less than the pause below, so events before [cutoff] are set-up. *)
let traced_daemon ~args ~warm_up ~file body =
  if Sys.file_exists file then Sys.remove file;
  let spawned = Unix.gettimeofday () in
  let d, _ = ready (args @ [ "--trace"; file ]) in
  let (x, cutoff), _ =
    stopping d (fun () ->
        ignore (warm_up d);
        let cutoff = Unix.gettimeofday () -. spawned in
        Thread.delay 0.25;
        (body d, cutoff))
  in
  let layers = Layers.create () in
  Layers.add_trace ~after:cutoff layers file;
  (x, layers)

(* the service-lifetime registry the `metrics' op reports *)
type registry = {
  spans : (string * (float * float)) list;  (** calls, total seconds *)
  counters : (string * float) list;
  gauges : (string * (float * float)) list;  (** max, samples *)
}

let empty_registry = { spans = []; counters = []; gauges = [] }

let registry d =
  let resp = Proc.call d {|{"id":0,"op":"metrics"}|} in
  let r = Option.get (Json.member "result" (Json.of_string resp)) in
  let rows k f =
    match Json.member k r with
    | Some (Json.Obj kvs) -> List.map (fun (n, v) -> (n, f v)) kvs
    | _ -> []
  in
  let num k v = match Json.member k v with Some (Json.Num f) -> f | _ -> 0. in
  {
    spans = rows "spans" (fun v -> (num "calls" v, num "total_s" v));
    counters = rows "counters" (function Json.Num f -> f | _ -> 0.);
    gauges = rows "gauges" (fun v -> (num "max" v, num "samples" v));
  }

(* Serve and Runtime.Pool metrics: the daemon's own split of each
   answer, plus the registry's change over the measured requests
   (gauge maxima are lifetime maxima) *)
let serve_metrics samples (before, after) =
  let ok =
    Array.of_list
      (List.filter (fun s -> s.ok && Float.is_finite s.wall_ms) (Array.to_list samples))
  in
  let q f p = if ok = [||] then 0. else Stats.quantile (Array.map f ok) p in
  let hits = Array.of_list (List.filter (fun s -> s.cached) (Array.to_list ok)) in
  let get k l = Option.value ~default:0. (List.assoc_opt k l) in
  let pair k l = Option.value ~default:(0., 0.) (List.assoc_opt k l) in
  let counter k = get k after.counters -. get k before.counters in
  let span_delta k f = f (pair k after.spans) -. f (pair k before.spans) in
  let requests =
    List.fold_left
      (fun acc (k, _) ->
        if String.starts_with ~prefix:"serve." k && String.ends_with ~suffix:".requests" k
        then acc +. counter k
        else acc)
      0. after.counters
  in
  let batches = snd (pair "serve.batch.size" after.gauges) -. snd (pair "serve.batch.size" before.gauges) in
  let hit = counter "serve.cache.hit" and miss = counter "serve.cache.miss" in
  let ratio a b = if b > 0. then a /. b else 0. in
  [
    ("serve.queue_wait_p50_ms", q (fun s -> s.queue_ms) 0.5, "ms");
    ("serve.queue_wait_p90_ms", q (fun s -> s.queue_ms) 0.9, "ms");
    ("serve.handler_p50_ms", q (fun s -> s.wall_ms) 0.5, "ms");
    ("serve.transport_p50_ms", q (fun s -> (s.lat *. 1e3) -. s.wall_ms -. s.queue_ms) 0.5, "ms");
    ( "hit_latency_p50_ms",
      (if hits = [||] then 0. else Stats.median (Array.map (fun s -> s.lat *. 1e3) hits)),
      "ms" );
    ("serve.batch_size_max", fst (pair "serve.batch.size" after.gauges), "count");
    ("serve.requests_per_batch", ratio requests batches, "count");
    ("serve.cache_hit_ratio", ratio hit (hit +. miss), "fraction");
    ("serve.cache_size_max", fst (pair "serve.cache.size" after.gauges), "count");
  ]
  @ List.map
      (fun k -> ("serve.errors." ^ k, counter ("serve.error." ^ k), "count"))
      [ "bad_request"; "deadline_exceeded"; "overloaded"; "internal" ]
  @ [
      ("pool.serve.busy_ms", span_delta "pool.serve" snd *. 1e3, "ms");
      ("pool.serve.tasks", counter "pool.serve.tasks", "count");
      ("pool.serve.sections", span_delta "pool.serve" fst, "count");
    ]

(* every per-layer metric; the ones a workload does not reach read 0 *)
let per_layer ~samples ~registers ~layers ~replayed ~codec ?(sustained = 0.) ?(lag = 0.)
    ?(cli_overhead = 0.) () =
  let n = Array.length samples in
  let sum xs = Stats.sum (Array.map (fun s -> s.lat) xs) in
  serve_metrics samples registers
  @ [
      ( "error_rate",
        (if n = 0 then 0. else float_of_int (n - completed samples) /. float_of_int n),
        "fraction" );
      ("sustained_rps", sustained, "req/s");
      ("loadgen.lag_p90_ms", lag, "ms");
      ("trace.overhead_ratio", sum replayed /. sum samples, "ratio");
      ("trace.top_level_ms", layers.Layers.top_level *. 1e3, "ms");
      ("trace.wall_ms", sum replayed *. 1e3, "ms");
      ("cli.overhead_ms_p50", cli_overhead, "ms");
    ]
  @ Layers.metrics layers @ codec @ Layers.tape_metrics ()

let trace_file workload seed =
  Filename.concat (Proc.scratch_dir ()) (Printf.sprintf "trace-%s-%d.ndjson" workload seed)

let top_level_check c layers replayed =
  let wall = Stats.sum (Array.map (fun s -> s.lat) replayed) in
  if layers.Layers.top_level > wall then
    problem c
      (Printf.sprintf "traced top-level spans %.1f ms exceed the wall time %.1f ms"
         (layers.Layers.top_level *. 1e3) (wall *. 1e3))

(* ------------------------------------------------------------------ *)
(* mf-solve: a closed loop on the daemon                             *)

(* the daemon's answer to 1 in 20 inputs must equal, bit for bit, an
   in-process Codec.eval of the same line *)
let in_process_check c lines =
  Array.iteri
    (fun i line ->
      if i mod 20 = 0 then
        match Codec.of_line line with
        | Ok (Codec.Analyze req) -> (
            let result, cert = Codec.eval (Codec.spec_of_request req) req.Codec.op in
            let expect =
              Printf.sprintf "\"result\":%s,\"cert\":%s" (Json.to_string result)
                (Json.to_string (Codec.json_of_cert cert))
            in
            match Hashtbl.find_opt c.first i with
            | Some p when not (String.equal p expect) ->
                problem c (Printf.sprintf "input %d: differs from in-process Codec.eval" i)
            | _ -> ())
        | _ -> problem c (Printf.sprintf "input %d: unparsable in process" i))
    lines

let codec_pairs c lines =
  Hashtbl.fold (fun i p acc -> (lines.(i), "{" ^ p ^ "}") :: acc) c.first []

let mf_solve ~seed ~seconds ~traced ~tiny =
  let deck = W.mf_solve ~tiny seed in
  let c = checker () in
  let lines = Array.mapi (fun i r -> W.line ~id:i r) deck in
  let n = Array.length deck in
  let serve d i =
    let lat, resp = timed (fun () -> Proc.call d lines.(i)) in
    daemon_sample c ~op:deck.(i).W.op i lat resp
  in
  (* one request is in flight and its solve runs on one worker, with no
     nested pool.  A second worker only idles, yet on a 2-vCPU host it
     made a request about 1.6 times slower and the runs noisier: every
     minor collection stops both domains. *)
  let args = serve_args ~jobs:1 [] in
  let st = W.rng seed "mf-solve/order" in
  let window d () =
    let (served, wall_s), cpu_s = with_cpu d (fun () -> pass ~st ~n (serve d)) in
    let samples = Array.map snd served in
    (served, { samples; timed = samples; wall_s; cpu_s })
  in
  let warm_up d = snd (window d ()) in
  let sizes = [ ("inputs", float_of_int n); ("jobs", 1.) ] in
  if not traced then begin
    let d, setup = set_up args in
    let (warm, ws), rss_mb =
      stopping d (fun () ->
          let warm = warm_up d in
          (warm, windows ~seconds (fun () -> snd (window d ()))))
    in
    in_process_check c lines;
    timed_result c ~limit:10_000. ~sizes ~setup ~rss_mb ~warm_up:warm.samples ws
  end
  else begin
    let d, _ = ready args in
    let (served, w, before, after), _ =
      stopping d (fun () ->
          ignore (warm_up d);
          let before = registry d in
          let served, w = window d () in
          (served, w, before, registry d))
    in
    let replayed, layers =
      traced_daemon ~args ~warm_up ~file:(trace_file "mf-solve" seed) (fun d ->
          Array.map (fun (i, _) -> serve d i) served)
    in
    top_level_check c layers replayed;
    traced_result c ~sizes ~samples:w.samples ~layers
      (per_layer ~samples:w.samples ~registers:(before, after) ~layers ~replayed
         ~codec:(Layers.codec_metrics (codec_pairs c lines))
         ())
  end

(* ------------------------------------------------------------------ *)
(* open-mix: scheduled arrivals on the daemon                         *)

(* one writer thread sends on schedule, one reader thread takes the
   answers; each latency counts from when its request was due *)
let open_loop c d (om : W.open_mix) sched =
  let n = Array.length sched in
  let lines = Array.mapi (fun k (_, e) -> W.line ~id:k om.W.catalogue.(e)) sched in
  let sent = Array.make n Float.nan and answered = Array.make n Float.nan in
  let resp = Array.make n "" in
  let t0 = Proc.now () +. 0.05 in
  let due k = t0 +. fst sched.(k) in
  let writer =
    Thread.create
      (fun () ->
        Array.iteri
          (fun k line ->
            let wait = due k -. Proc.now () in
            if wait > 0. then Thread.delay wait;
            sent.(k) <- Proc.now ();
            Proc.send d line)
          lines)
      ()
  in
  let reader =
    Thread.create
      (fun () ->
        try
          for _ = 1 to n do
            let l = Proc.recv d in
            let t = Proc.now () in
            let k = int_of_float (Checks.number l "id") in
            answered.(k) <- t;
            resp.(k) <- l
          done
        with End_of_file -> ())
      ()
  in
  Thread.join writer;
  Thread.join reader;
  let samples =
    Array.init n (fun k ->
        let e = snd sched.(k) in
        if resp.(k) = "" then failed "lost"
        else daemon_sample c ~op:om.W.catalogue.(e).W.op e (answered.(k) -. due k) resp.(k))
  in
  let lag = Array.mapi (fun k s -> (s -. due k) *. 1e3) sent in
  let last = Array.fold_left (fun m t -> if Float.is_nan t then m else Float.max m t) t0 answered in
  (samples, last -. t0, lag)

let in_step (om : W.open_mix) sched samples step =
  let step_of (t, _) = Int.min (Array.length om.W.rates - 1) (int_of_float (t /. om.W.step_s)) in
  Array.of_list
    (List.filteri (fun k _ -> step_of sched.(k) = step) (Array.to_list samples))

(* the highest rate step with p90 <= 1000 ms and no failures *)
let sustained om sched samples =
  Array.to_list om.W.rates
  |> List.mapi (fun k rate ->
         let s = in_step om sched samples k in
         if Array.length s > 0
            && completed s = Array.length s
            && Stats.quantile (latencies_ms ~limit:10_000. s) 0.9 <= 1000.
         then rate
         else 0.)
  |> List.fold_left Float.max 0.

(* one daemon with two workers runs a fresh schedule per window,
   schedule 0 being the warm-up; the latency percentiles cover the
   middle rate step *)
let open_mix ~seed ~seconds ~traced ~tiny =
  let om = W.open_mix ~tiny seed in
  let sched = W.schedule om ~seed in
  let c = checker () in
  let args = serve_args ~jobs:2 [ "--cache-capacity"; "64" ] in
  let sizes =
    [
      ("catalogue", float_of_int (Array.length om.W.catalogue));
      ("arrivals_per_window", float_of_int (Array.length (sched 0)));
      ("step_s", om.W.step_s);
      ("jobs", 2.);
    ]
    @ Array.to_list (Array.mapi (fun k r -> (Printf.sprintf "rate_%d" k, r)) om.W.rates)
  in
  let middle = Array.length om.W.rates / 2 in
  let window d k =
    let sched = sched k in
    let (samples, wall_s, _), cpu_s = with_cpu d (fun () -> open_loop c d om sched) in
    { samples; timed = in_step om sched samples middle; wall_s; cpu_s }
  in
  let warm_up d = window d 0 in
  if not traced then begin
    let d, setup = set_up args in
    let (warm, ws), rss_mb =
      stopping d (fun () ->
          let warm = warm_up d in
          let k = ref 0 in
          ( warm,
            windows ~seconds (fun () ->
                incr k;
                window d !k) ))
    in
    timed_result c ~limit:10_000. ~sizes ~setup ~rss_mb ~warm_up:warm.samples ws
  end
  else begin
    let sched = sched 1 in
    let d, _ = ready args in
    let ((samples, _, lag), before, after), _ =
      stopping d (fun () ->
          ignore (warm_up d);
          let before = registry d in
          let x = open_loop c d om sched in
          (x, before, registry d))
    in
    let (replayed, _, _), layers =
      traced_daemon ~args ~warm_up ~file:(trace_file "open-mix" seed) (fun d ->
          open_loop c d om sched)
    in
    top_level_check c layers replayed;
    let lines = Array.map (fun r -> W.line ~id:0 r) om.W.catalogue in
    traced_result c ~sizes ~samples ~layers
      (per_layer ~samples ~registers:(before, after) ~layers ~replayed
         ~codec:(Layers.codec_metrics (codec_pairs c lines))
         ~sustained:(sustained om sched samples)
         ~lag:(Stats.quantile lag 0.9) ())
  end

(* ------------------------------------------------------------------ *)
(* ctmc-cli: one CLI child at a time                                  *)

let ctmc_cli ~seed ~seconds ~traced ~tiny =
  let deck = W.ctmc_cli ~tiny seed in
  let c = checker () in
  (* CPU and peak resident set of the children reaped *)
  let cpu = ref 0. and rss = ref 0. in
  let serve ?trace i =
    let args = ("ctmc" :: deck.(i)) @ match trace with Some f -> [ "--trace"; f ] | None -> [] in
    let lat, outcome = timed (fun () -> Proc.run_cli args) in
    match outcome with
    | Proc.Exited { usage; out; err } ->
        cpu := !cpu +. usage.Proc.cpu_s;
        rss := Float.max !rss usage.Proc.rss_mb;
        if usage.Proc.code = 0 then begin
          judge c i out ~validate:(fun () -> Checks.cli_problems (List.hd deck.(i)) out);
          { (failed "") with lat; ok = true }
        end
        else begin
          prerr_string err;
          { (failed (Printf.sprintf "exit_%d" usage.Proc.code)) with lat }
        end
    | Proc.Timed_out -> { (failed "timeout") with lat }
  in
  (* the set-up probe: the smallest run of each mode *)
  let probe () =
    List.iter
      (fun a ->
        match Proc.run_cli ("ctmc" :: a) with
        | Proc.Exited { usage = { Proc.code = 0; _ }; _ } -> ()
        | _ -> failwith ("set-up run failed: ctmc " ^ String.concat " " a))
      W.ctmc_warm_up
  in
  let n = Array.length deck in
  let st = W.rng seed "ctmc-cli/order" in
  let window () =
    let cpu0 = !cpu in
    let served, wall_s = pass ~st ~n (fun i -> serve i) in
    let samples = Array.map snd served in
    (served, { samples; timed = samples; wall_s; cpu_s = !cpu -. cpu0 })
  in
  let sizes = [ ("inputs", float_of_int n) ] in
  if not traced then begin
    let setup = Array.init setups (fun _ -> fst (timed probe)) in
    rss := 0.;
    let ws = windows ~seconds (fun () -> snd (window ())) in
    timed_result c ~limit:30_000. ~sizes ~setup ~rss_mb:!rss ~warm_up:[||] ws
  end
  else begin
    probe ();
    let served, w = window () in
    let layers = Layers.create () in
    let file = trace_file "ctmc-cli" seed in
    (* start-up and output: each run's wall time outside its top-level spans *)
    let overheads = ref [] in
    let replayed =
      Array.map
        (fun (i, _) ->
          if Sys.file_exists file then Sys.remove file;
          let s = serve ~trace:file i in
          let top0 = layers.Layers.top_level in
          if Sys.file_exists file then Layers.add_trace layers file;
          overheads := ((s.lat -. (layers.Layers.top_level -. top0)) *. 1e3) :: !overheads;
          s)
        served
    in
    top_level_check c layers replayed;
    traced_result c ~sizes ~samples:w.samples ~layers
      (per_layer ~samples:w.samples ~registers:(empty_registry, empty_registry) ~layers ~replayed
         ~codec:(Layers.codec_metrics [])
         ~cli_overhead:(Stats.median (Array.of_list !overheads))
         ())
  end

let run ~workload ~seed ~seconds ~traced ~tiny =
  match workload with
  | "mf-solve" -> mf_solve ~seed ~seconds ~traced ~tiny
  | "open-mix" -> open_mix ~seed ~seconds ~traced ~tiny
  | "ctmc-cli" -> ctmc_cli ~seed ~seconds ~traced ~tiny
  | w -> invalid_arg ("unknown workload " ^ w)
