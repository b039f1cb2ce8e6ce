(* Black-box test of the umf_cli tolerance surface: --epsilon (a target
   certified error) is the one tolerance flag of bounds and ctmc, so
   --dt there is an unknown option (cmdliner usage error, exit 124),
   while hull keeps --dt as its own grid step — and refuses a step too
   small to count or a non-finite step or horizon (exit 1), as ctmc
   bounds refuses a θ grid past its cap. *)

let cli = Sys.argv.(1)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

(* exit code + captured stderr of one invocation (stdout discarded) *)
let run args =
  let err_file = Filename.temp_file "umf_cli_test" ".err" in
  let err_fd =
    Unix.openfile err_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process cli
      (Array.of_list (cli :: args))
      Unix.stdin null err_fd
  in
  Unix.close err_fd;
  Unix.close null;
  let _, status = Unix.waitpid [] pid in
  let code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + s
  in
  let ic = open_in_bin err_file in
  let err = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove err_file;
  (code, err)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_ok name args =
  let code, err = run args in
  if code <> 0 then fail "%s: expected success, got exit %d:\n%s" name code err

let check_unknown_dt name args =
  let code, err = run (args @ [ "--dt"; "0.05" ]) in
  if code <> 124 then
    fail "%s: expected usage error (124) for --dt, got %d:\n%s" name code err;
  if not (contains err "--dt") then
    fail "%s: usage error does not name --dt:\n%s" name err

let check_refused name args =
  let code, err = run args in
  if code <> 1 then fail "%s: expected exit 1, got %d:\n%s" name code err;
  if not (contains err "error:") then
    fail "%s: no error: line on stderr:\n%s" name err

let bounds_args =
  [ "bounds"; "-m"; "sir"; "--var"; "I"; "--horizon"; "0.5"; "--points";
    "2"; "--steps"; "20" ]

let ctmc_args =
  [ "ctmc"; "transient"; "-m"; "sir"; "--size"; "5"; "--points"; "2";
    "--horizon"; "0.5" ]

let () =
  check_ok "bounds --epsilon" (bounds_args @ [ "--epsilon"; "1e-2" ]);
  check_ok "ctmc --epsilon" (ctmc_args @ [ "--epsilon"; "1e-2" ]);
  check_unknown_dt "bounds" bounds_args;
  check_unknown_dt "ctmc" ctmc_args;
  check_ok "hull --dt"
    [ "hull"; "-m"; "sir"; "--horizon"; "0.5"; "--dt"; "0.05" ];
  (* a step count past max_int must not wrap to one step over the
     horizon, and NaN must not pass the positivity checks *)
  check_refused "hull --dt 1e-300"
    [ "hull"; "-m"; "sir"; "--horizon"; "1"; "--dt"; "1e-300" ];
  check_refused "hull --dt nan"
    [ "hull"; "-m"; "sir"; "--horizon"; "1"; "--dt"; "nan" ];
  check_refused "hull --horizon nan"
    [ "hull"; "-m"; "sir"; "--horizon"; "nan" ];
  (* a θ grid past 4096 points is refused before it is built *)
  check_refused "ctmc bounds --grid 5000"
    [ "ctmc"; "bounds"; "-m"; "sir"; "--size"; "5"; "--var"; "I";
      "--grid"; "5000" ];
  print_endline
    "cli-flags OK (--epsilon on bounds and ctmc, --dt refused there, hull \
     --dt kept, tiny and non-finite hull steps refused, a θ grid past \
     4096 points refused)"
