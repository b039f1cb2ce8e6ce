(* Golden test of every umf_cli analysis subcommand.  golden/cases.tsv
   holds one case per line: a name, the CLI arguments, and the
   equivalent umf_serve request.  golden/NAME.out is the expected
   stdout and golden/NAME.meta the expected exit code followed by the
   "# cert" and "error:" lines of stderr; both were recorded once from
   an earlier build and are never rewritten by this test.

   Each case checks that
   - the CLI's stdout and exit code match the recording byte for byte;
   - its "error:" lines match, and its "# cert" lines match wherever
     the recording has any (a pw:k scenario may gain them);
   - the equivalent request, served through Serve.process and printed
     with Codec.render, reproduces the same stdout bytes and the CLI's
     cert lines — or, where the CLI failed without output, answers
     with an error carrying the CLI's message. *)

open Umf
module Json = Obs.Json

let cli = Sys.argv.(1)

let failures = ref 0

let fail name fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.eprintf "cli-golden FAILED %s: %s\n%!" name s)
    fmt

let read file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lines s = List.filter (( <> ) "") (String.split_on_char '\n' s)

let starts prefix l =
  String.length l >= String.length prefix
  && String.sub l 0 (String.length prefix) = prefix

(* exit code, stdout and stderr of one CLI run *)
let run args =
  let out = Filename.temp_file "cli_golden" ".out"
  and err = Filename.temp_file "cli_golden" ".err" in
  let fd f = Unix.openfile f [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let out_fd = fd out and err_fd = fd err in
  let pid =
    Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin out_fd
      err_fd
  in
  Unix.close out_fd;
  Unix.close err_fd;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + s
  in
  let o = read out and e = read err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

let cert_lines s = String.concat "\n" (List.filter (starts "# cert") (lines s))
let error_lines s = List.filter (starts "error:") (lines s)

let check_case server (name, args, req) =
  let want_out = read ("golden/" ^ name ^ ".out") in
  let want_code, want_err =
    match lines (read ("golden/" ^ name ^ ".meta")) with
    | code :: rest -> (Scanf.sscanf code "exit %d" Fun.id, String.concat "\n" rest)
    | [] -> (-1, "")
  in
  let code, out, err = run args in
  if code <> want_code then fail name "exit %d, recorded %d" code want_code;
  if out <> want_out then fail name "stdout differs:\n%s---\n%s" out want_out;
  if error_lines err <> error_lines want_err then
    fail name "error lines differ:\n%s" err;
  let certs = cert_lines err and want_certs = cert_lines want_err in
  let pw = List.exists (starts "pw:") args in
  if certs <> want_certs && (want_certs <> "" || not pw) then
    fail name "cert lines differ:\n%s\n---\n%s" certs want_certs;
  (* the same analysis through the daemon's entry point *)
  let resp = Json.of_string (List.hd (Serve.process server [ req ])) in
  match (Codec.of_line req, Json.member "ok" resp) with
  | Ok (Codec.Analyze r), Some (Json.Bool true) -> (
      let member k = Option.get (Json.member k resp) in
      let spec = Codec.spec_of_request r in
      let sout, scerts =
        Codec.render spec r.Codec.op (member "result") (member "cert")
      in
      if sout <> want_out then
        fail name "served rendering differs:\n%s---\n%s" sout want_out;
      match certs with
      | "" -> ()
      | c -> if cert_lines scerts <> c then fail name "served cert lines differ")
  | Ok (Codec.Analyze _), _ when want_out = "" && want_code = 1 -> (
      (* a failed run answers with an error naming the same message *)
      let msg =
        match Json.member "error" resp with
        | Some e -> (
            match Json.member "message" e with Some (Json.Str m) -> m | _ -> "")
        | None -> ""
      in
      match error_lines want_err with
      | [ l ] when l = "error: " ^ msg -> ()
      | _ -> fail name "served error %S does not match the CLI's" msg)
  | _ -> fail name "served request failed: %s" (Json.to_string resp)

let () =
  let cases =
    List.map
      (fun l ->
        match String.split_on_char '\t' l with
        | [ name; args; req ] ->
            (name, List.filter (( <> ) "") (String.split_on_char ' ' args), req)
        | _ -> failwith ("cli-golden: malformed case line: " ^ l))
      (lines (read "golden/cases.tsv"))
  in
  let server = Serve.create (Serve.config ~domains:1 ~cache_capacity:0 ()) in
  Fun.protect
    ~finally:(fun () -> Serve.shutdown server)
    (fun () -> List.iter (check_case server) cases);
  if !failures > 0 then exit 1;
  Printf.printf
    "cli-golden OK (%d cases: stdout, exit codes and ledger lines match the \
     recording; served answers render to the same bytes)\n"
    (List.length cases)
