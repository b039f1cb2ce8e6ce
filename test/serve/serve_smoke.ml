(* End-to-end smoke test for the serve daemon: exercises Serve.process
   (batching, caching, deadlines, backpressure) and the serve_fd pipe
   transport without spawning the binary. *)

open Umf
module Json = Obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let parse line =
  match Json.of_string line with
  | Json.Obj _ as j -> j
  | _ | (exception Failure _) -> fail "response is not a JSON object: %s" line

let member name j =
  match Json.member name j with
  | Some v -> v
  | None -> fail "response lacks %S: %s" name (Json.to_string j)

let bool_member name j =
  match member name j with
  | Json.Bool b -> b
  | v -> fail "%S is not a bool: %s" name (Json.to_string v)

let str_member name j =
  match member name j with
  | Json.Str s -> s
  | v -> fail "%S is not a string: %s" name (Json.to_string v)

(* the payload a cache hit must reproduce bitwise: the Json printer
   round-trips floats (%.17g), so re-rendered equality of the parsed
   members is byte equality of the original payload *)
let payload line =
  let j = parse line in
  (Json.to_string (member "result" j), Json.to_string (member "cert" j))

let bounds_req ?(id = 1) ?(extra = "") () =
  Printf.sprintf
    "{\"id\":%d,\"op\":\"bounds\",\"model\":\"sir\",\"coord\":1,\
     \"horizon\":2,\"steps\":60,\"times\":[0.0,1.0,2.0]%s}"
    id extra

let with_server ?(queue_limit = 64) f =
  let t =
    Serve.create (Serve.config ~domains:2 ~queue_limit ())
  in
  Fun.protect ~finally:(fun () -> Serve.shutdown t) (fun () -> f t)

(* --- cache: warm hit is bitwise-identical to the cold run ---------- *)

let test_cache_identity () =
  with_server (fun t ->
      let cold =
        match Serve.process t [ bounds_req () ] with
        | [ r ] -> r
        | rs -> fail "expected 1 cold response, got %d" (List.length rs)
      in
      let warm = List.hd (Serve.process t [ bounds_req () ]) in
      if not (bool_member "ok" (parse cold)) then
        fail "cold request failed: %s" cold;
      if bool_member "cached" (parse cold) then
        fail "cold request claims cached: %s" cold;
      if not (bool_member "cached" (parse warm)) then
        fail "second identical request missed the cache: %s" warm;
      if payload cold <> payload warm then
        fail "warm payload differs from cold:\n  %s\n  %s" cold warm;
      (* the cert ledger is present and carries all four budget lines *)
      let cert = member "cert" (parse warm) in
      List.iter
        (fun l ->
          ignore (member l (member "budget" cert)))
        [ "discretisation"; "truncation"; "rounding"; "optimiser" ])

(* --- determinism: same batch on two fresh servers ------------------ *)

let test_batch_determinism () =
  let batch =
    [
      bounds_req ~id:1 ();
      bounds_req ~id:2 ~extra:",\"scenario\":{\"uncertain\":3}" ();
      "{\"id\":3,\"op\":\"hull\",\"model\":\"sir\",\"horizon\":2,\
       \"steps\":60}";
      bounds_req ~id:4 ();
    ]
  in
  let run () = with_server (fun t -> Serve.process t batch) in
  let a = run () and b = run () in
  if List.length a <> List.length batch then
    fail "expected %d responses, got %d" (List.length batch)
      (List.length a);
  List.iteri
    (fun i (ra, rb) ->
      if not (bool_member "ok" (parse ra)) then
        fail "batch request %d failed: %s" i ra;
      if payload ra <> payload rb then
        fail "batch request %d differs across servers:\n  %s\n  %s" i ra rb)
    (List.combine a b);
  (* responses come back in request order *)
  List.iteri
    (fun i r ->
      match member "id" (parse r) with
      | Json.Num n when int_of_float n = i + 1 -> ()
      | v -> fail "response %d has id %s" i (Json.to_string v))
    a

(* --- deadlines: structured error, worker survives ------------------ *)

let test_deadline () =
  with_server (fun t ->
      let expired =
        List.hd
          (Serve.process t
             [ bounds_req ~extra:",\"deadline_ms\":0.001,\"cache\":false" () ])
      in
      let j = parse expired in
      if bool_member "ok" j then fail "expired request succeeded: %s" expired;
      let err = member "error" j in
      if str_member "kind" err <> "deadline_exceeded" then
        fail "expected deadline_exceeded, got: %s" expired;
      (* the partial ledger rides along *)
      ignore (member "budget" (member "cert" j));
      (* the worker that unwound still answers the next request *)
      let next = List.hd (Serve.process t [ bounds_req ~id:9 () ]) in
      if not (bool_member "ok" (parse next)) then
        fail "worker did not survive deadline expiry: %s" next)

(* --- backpressure: queue limit refuses the excess ------------------ *)

let test_overload () =
  with_server ~queue_limit:1 (fun t ->
      let rs =
        Serve.process t
          [ bounds_req ~id:1 (); bounds_req ~id:2 ~extra:",\"tol\":1e-5" ();
            "{\"id\":3,\"op\":\"ping\"}" ]
      in
      match List.map parse rs with
      | [ r1; r2; r3 ] ->
          if not (bool_member "ok" r1) then fail "admitted request failed";
          if bool_member "ok" r2 then fail "excess request was admitted";
          if str_member "kind" (member "error" r2) <> "overloaded" then
            fail "expected overloaded, got: %s" (Json.to_string r2);
          (* service ops don't count against the analysis queue *)
          if not (bool_member "ok" r3) then fail "ping was refused"
      | rs -> fail "expected 3 responses, got %d" (List.length rs))

(* --- transport: pipelined lines over a pipe ------------------------ *)

let test_pipe_transport () =
  with_server (fun t ->
      let req_r, req_w = Unix.pipe ~cloexec:false () in
      let resp_r, resp_w = Unix.pipe ~cloexec:false () in
      let input =
        String.concat "\n"
          [ "{\"id\":\"a\",\"op\":\"ping\"}";
            "{\"id\":\"b\",\"op\":\"models\"}"; bounds_req ~id:7 (); "" ]
      in
      let writer =
        Thread.create
          (fun () ->
            ignore (Unix.write_substring req_w input 0 (String.length input));
            Unix.close req_w)
          ()
      in
      let server =
        Thread.create
          (fun () ->
            Serve.serve_fd t ~input:req_r ~output:resp_w;
            Unix.close resp_w)
          ()
      in
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read resp_r chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      drain ();
      Thread.join writer;
      Thread.join server;
      Unix.close req_r;
      Unix.close resp_r;
      let lines =
        String.split_on_char '\n' (Buffer.contents buf)
        |> List.filter (fun l -> String.trim l <> "")
      in
      if List.length lines <> 3 then
        fail "expected 3 response lines over the pipe, got %d"
          (List.length lines);
      List.iter2
        (fun want line ->
          let j = parse line in
          if not (bool_member "ok" j) then fail "pipe response failed: %s" line;
          if Json.to_string (member "id" j) <> want then
            fail "pipe response out of order: %s" line)
        [ "\"a\""; "\"b\""; "7" ] lines;
      (* the models endpoint lists the registry *)
      match member "result" (parse (List.nth lines 1)) with
      | Json.Obj _ | Json.Arr _ -> ()
      | v -> fail "models result malformed: %s" (Json.to_string v))

(* --- the ops umf_cli shares: warm hits, cache keys, errors ---------- *)

let new_op_reqs =
  [
    "{\"op\":\"simulate\",\"model\":\"sir\",\"n\":50,\"horizon\":1,\"points\":4}";
    "{\"op\":\"simulate\",\"model\":\"sir\",\"n\":50,\"horizon\":1,\"reps\":3,\
     \"policy\":\"theta1\"}";
    "{\"op\":\"ctmc\",\"mode\":\"transient\",\"model\":\"sir\",\"n\":8,\
     \"horizon\":1,\"times\":[0,0.5,1]}";
    "{\"op\":\"ctmc\",\"mode\":\"stationary\",\"model\":\"sis\",\"n\":10}";
    "{\"op\":\"ctmc\",\"mode\":\"envelope\",\"model\":\"sir\",\"n\":8,\"coord\":1,\
     \"scenario\":{\"uncertain\":2},\"horizon\":1,\"epsilon\":0.001}";
    "{\"op\":\"first_passage\",\"model\":\"sir\",\"n\":6,\"coord\":1,\
     \"level\":0.1,\"direction\":\"below\",\"epsilon\":0.1,\"horizon\":1,\
     \"times\":[0,1]}";
    "{\"op\":\"bounds\",\"model\":\"sir\",\"coord\":1,\"horizon\":1,\
     \"scenario\":{\"piecewise\":2},\"times\":[0,1]}";
  ]

let test_new_ops_cache () =
  with_server (fun t ->
      List.iter
        (fun req ->
          let cold = List.hd (Serve.process t [ req ]) in
          let warm = List.hd (Serve.process t [ req ]) in
          if not (bool_member "ok" (parse cold)) then
            fail "new op failed: %s -> %s" req cold;
          if not (bool_member "cached" (parse warm)) then
            fail "new op missed the cache: %s" req;
          if payload cold <> payload warm then
            fail "new op warm payload differs from cold:\n  %s\n  %s" cold warm)
        new_op_reqs)

let fingerprint line =
  match Codec.of_line line with
  | Ok (Codec.Analyze r) -> Codec.fingerprint (Codec.spec_of_request r) r.Codec.op
  | _ -> fail "not an analysis request: %s" line

(* every single-field change moves the cache key; spelling out a
   default, or a field the op does not use, does not.  Requests are
   (key, JSON value) lists; a variant replaces its key in the base
   request or adds it. *)
let test_fingerprints () =
  let line fields =
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields)
    ^ "}"
  in
  let fp base (k, v) =
    fingerprint
      (line
         (if List.mem_assoc k base then
            List.map (fun (k', v') -> (k', if k' = k then v else v')) base
          else base @ [ (k, v) ]))
  in
  let family base variants same =
    let fp0 = fingerprint (line base) in
    let fps = List.map (fp base) variants in
    List.iter2
      (fun (k, v) f ->
        if f = fp0 then fail "fingerprint ignores %s=%s in %s" k v (line base))
      variants fps;
    if List.length (List.sort_uniq compare fps) <> List.length fps then
      fail "two variants of %s share a fingerprint" (line base);
    List.iter
      (fun (k, v) ->
        if fp base (k, v) <> fp0 then
          fail "%s=%s changes the fingerprint of %s but not its answer" k v
            (line base))
      same
  in
  let sir = ("model", "\"sir\"") in
  family
    [ ("op", "\"ctmc\""); ("mode", "\"transient\""); sir; ("n", "10") ]
    [ ("n", "11"); ("mode", "\"stationary\""); ("theta_point", "\"lo\"");
      ("truncation", "\"adaptive\""); ("max_states", "1000");
      ("epsilon", "1e-3"); ("times", "[0,1]") ]
    [ ("theta_point", "\"mid\""); ("truncation", "\"exact\"");
      ("max_states", "2000000"); ("coord", "1") ];
  family
    [ ("op", "\"ctmc\""); ("mode", "\"stationary\""); sir; ("n", "10") ]
    [ ("theta_point", "\"hi\"") ]
    [ ("coord", "1"); ("times", "[0,1]") ];
  family
    [ ("op", "\"ctmc\""); ("mode", "\"envelope\""); sir; ("n", "10") ]
    [ ("coord", "1"); ("times", "[0,1]") ]
    [ ("coord", "0"); ("theta_point", "\"hi\"") ];
  family
    [ ("op", "\"simulate\""); sir; ("n", "50") ]
    [ ("n", "51"); ("seed", "2"); ("reps", "2"); ("policy", "\"theta1\"");
      ("points", "10") ]
    [ ("seed", "1"); ("reps", "1"); ("policy", "\"mid\""); ("points", "50") ];
  family
    [ ("op", "\"simulate\""); sir; ("n", "50"); ("reps", "3") ]
    [ ("reps", "4") ]
    [ ("points", "10") ];
  family
    [ ("op", "\"bounds\""); sir; ("coord", "1");
      ("scenario", "{\"piecewise\":2}") ]
    [ ("scenario", "{\"piecewise\":3}"); ("scenario", "{\"uncertain\":2}") ]
    [];
  family
    [ ("op", "\"first_passage\""); sir; ("n", "6"); ("coord", "1");
      ("level", "0.4") ]
    [ ("direction", "\"below\""); ("level", "0.5"); ("epsilon", "0.1") ]
    [ ("direction", "\"above\"") ]

(* an exact lattice over its budget is the caller's error, reported
   with the engine's message *)
let test_ctmc_overflow () =
  with_server (fun t ->
      let r =
        List.hd
          (Serve.process t
             [ "{\"op\":\"ctmc\",\"mode\":\"transient\",\"model\":\"sir\",\
                \"n\":50,\"max_states\":10}" ])
      in
      let err = member "error" (parse r) in
      if str_member "kind" err <> "bad_request" then
        fail "over-budget lattice is not a bad_request: %s" r;
      if str_member "message" err
         <> "Ctmc_of_population: state space exceeds max_states = 10"
      then fail "over-budget lattice lost the engine's message: %s" r)

(* a piecewise count or a θ grid past its cap is refused before any
   work, and a long piecewise search, simulation or uncertain grid
   unwinds at its deadline *)
let test_long_requests () =
  with_server (fun t ->
      let answer req = parse (List.hd (Serve.process t [ req ])) in
      let kind j = str_member "kind" (member "error" j) in
      let t0 = Unix.gettimeofday () in
      let j =
        answer
          "{\"op\":\"bounds\",\"model\":\"sir\",\"scenario\":{\"piecewise\":1000}}"
      in
      if bool_member "ok" j || kind j <> "bad_request" then
        fail "piecewise 1000 is not a bad_request: %s" (Json.to_string j);
      (* 1000 per axis on bikenet's three axes is 10^9 θ vectors *)
      let j =
        answer
          "{\"op\":\"bounds\",\"model\":\"bikenet\",\
           \"scenario\":{\"uncertain\":1000}}"
      in
      let message = str_member "message" (member "error" j) in
      if bool_member "ok" j || kind j <> "bad_request"
         || not (String.ends_with ~suffix:"over the limit of 4096" message)
      then fail "uncertain 1000 is not a bad_request naming 4096: %s"
          (Json.to_string j);
      List.iter
        (fun req ->
          let j = answer req in
          if bool_member "ok" j || kind j <> "deadline_exceeded" then
            fail "expected deadline_exceeded for %s, got %s" req
              (Json.to_string j))
        [
          "{\"op\":\"bounds\",\"model\":\"sir\",\"coord\":1,\
           \"scenario\":{\"piecewise\":30},\"deadline_ms\":100}";
          "{\"op\":\"simulate\",\"model\":\"sir\",\"n\":1000000000,\
           \"horizon\":100,\"deadline_ms\":100}";
          "{\"op\":\"simulate\",\"model\":\"sir\",\"n\":100,\
           \"reps\":1000000,\"deadline_ms\":100}";
          "{\"op\":\"bounds\",\"model\":\"bikenet\",\"coord\":0,\
           \"scenario\":{\"uncertain\":12},\"dt\":1e-4,\"horizon\":4,\
           \"deadline_ms\":100}";
        ];
      (* each expired within a few deadlines, not after the full run *)
      let took = Unix.gettimeofday () -. t0 in
      if took > 5. then fail "long requests took %.1f s to answer" took)

(* served hulls are clipped to the model box, so sir3 solves *)
let test_sir3_hull () =
  with_server (fun t ->
      let r =
        List.hd
          (Serve.process t [ "{\"op\":\"hull\",\"model\":\"sir3\",\"horizon\":2}" ])
      in
      if not (bool_member "ok" (parse r)) then fail "sir3 hull failed: %s" r)

(* interval faces make the jsq2 hull fast enough for a 1 s deadline;
   a step count that does not fit an int and a non-finite horizon are
   refused before any work ("1e999" parses to infinity) *)
let test_hull_requests () =
  with_server (fun t ->
      let answer req = parse (List.hd (Serve.process t [ req ])) in
      let j =
        answer
          "{\"op\":\"hull\",\"model\":\"jsq2\",\"horizon\":2,\
           \"deadline_ms\":1000}"
      in
      if not (bool_member "ok" j) then
        fail "jsq2 hull missed a 1 s deadline: %s" (Json.to_string j);
      List.iter
        (fun req ->
          let j = answer req in
          if bool_member "ok" j
             || str_member "kind" (member "error" j) <> "bad_request"
          then
            fail "expected bad_request for %s, got %s" req (Json.to_string j))
        [
          "{\"op\":\"hull\",\"model\":\"sir\",\"horizon\":1,\"dt\":1e-300}";
          "{\"op\":\"hull\",\"model\":\"sir\",\"horizon\":1e999}";
        ])

(* --- pinned solver payloads ------------------------------------------ *)

(* golden/cases.tsv names a request per line; golden/NAME.json holds
   the {"result":...,"cert":...} bytes the daemon answers.  They were
   recorded once and are never regenerated, so any change to the
   arithmetic of a served Pontryagin or Birkhoff solve shows here. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let payload_bytes line =
  let key = ",\"result\":" in
  let n = String.length line and k = String.length key in
  let rec find i =
    if i + k > n then fail "response lacks a result: %s" line
    else if String.sub line i k = key then i
    else find (i + 1)
  in
  let i = find 0 in
  (* the line ends with the cert object and the response's own brace *)
  "{" ^ String.sub line (i + 1) (n - i - 2) ^ "}\n"

let test_golden_payloads () =
  let cases =
    read_file "golden/cases.tsv"
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match String.split_on_char '\t' l with
           | [ name; req ] -> (name, req)
           | _ -> fail "malformed golden case: %s" l)
  in
  with_server (fun t ->
      List.iter2
        (fun (name, _) line ->
          if not (bool_member "ok" (parse line)) then
            fail "golden case %s failed: %s" name line;
          if payload_bytes line <> read_file ("golden/" ^ name ^ ".json") then
            fail "golden case %s: payload bytes moved:\n  %s" name line)
        cases
        (Serve.process t (List.map snd cases)))

(* non-finite numbers ("1e999" parses to infinity) and negative sample
   times are refused before any work: an infinite start answers with
   null rows, and an infinite sample time integrates toward an infinite
   horizon without reaching a deadline probe *)
let test_bad_numbers () =
  with_server (fun t ->
      List.iter
        (fun req ->
          let j = parse (List.hd (Serve.process t [ req ])) in
          if bool_member "ok" j
             || str_member "kind" (member "error" j) <> "bad_request"
          then
            fail "expected bad_request for %s, got %s" req (Json.to_string j))
        [
          "{\"op\":\"steady\",\"model\":\"sir\",\"x_start\":[1e999,0.3]}";
          "{\"op\":\"hull\",\"model\":\"sir\",\"horizon\":1,\"x0\":[1e999,0]}";
          "{\"op\":\"bounds\",\"model\":\"sir\",\"coord\":0,\"horizon\":1,\
           \"scenario\":{\"uncertain\":3},\"times\":[0,1e999],\
           \"deadline_ms\":2000}";
          "{\"op\":\"bounds\",\"model\":\"sir\",\"coord\":0,\"horizon\":1,\
           \"times\":[0,-1]}";
        ])

(* the lockstep escape rounds read the clock at every step *)
let test_steady_deadline () =
  with_server (fun t ->
      let t0 = Unix.gettimeofday () in
      let j =
        parse
          (List.hd
             (Serve.process t
                [ "{\"op\":\"steady\",\"model\":\"sir\",\"deadline_ms\":50}" ]))
      in
      let took = Unix.gettimeofday () -. t0 in
      if bool_member "ok" j
         || str_member "kind" (member "error" j) <> "deadline_exceeded"
      then
        fail "expected deadline_exceeded for steady, got %s" (Json.to_string j);
      if took > 0.2 then
        fail "steady with a 50 ms deadline took %.0f ms" (took *. 1000.))

let () =
  test_cache_identity ();
  test_batch_determinism ();
  test_deadline ();
  test_overload ();
  test_pipe_transport ();
  test_new_ops_cache ();
  test_fingerprints ();
  test_ctmc_overflow ();
  test_long_requests ();
  test_sir3_hull ();
  test_hull_requests ();
  test_golden_payloads ();
  test_bad_numbers ();
  test_steady_deadline ();
  print_endline
    "serve-smoke OK (cache identity, batch determinism, deadline, \
     backpressure, pipe transport, new-op warm hits, fingerprints, ctmc \
     overflow, long-request cap and deadlines, sir3 hull, jsq2 hull in 1 s, \
     tiny and non-finite hull steps refused, pinned solver payloads, \
     non-finite numbers and negative times refused, steady deadline)"
