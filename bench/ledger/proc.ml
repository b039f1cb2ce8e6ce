(* The two programs under test, driven from outside: the umf_serve
   daemon over its stdio NDJSON pipe, and one-shot umf_cli runs. *)

external now : unit -> float = "ledger_now"
(** Monotonic seconds. *)

external wait4 : int -> bool -> int * int * int * float = "ledger_wait4"

external clk_tck : unit -> int = "ledger_clk_tck"

(* the ledger runs from <root>/_build/default/bench/ledger/ledger.exe;
   the programs it drives are built next to it *)
let build_dir =
  let up = Filename.dirname in
  up (up (up Sys.executable_name))

let program name = Filename.concat (Filename.concat build_dir "bin") name

(* scratch space for trace files, inside the build tree *)
let scratch_dir () =
  let dir = Filename.concat (Filename.dirname build_dir) "ledger" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

let rec retry_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

(* children started and not reaped yet; whichever way the ledger
   leaves, they are killed and reaped at exit *)
let live : (int, unit) Hashtbl.t = Hashtbl.create 8

let () =
  at_exit (fun () ->
      Hashtbl.iter
        (fun pid () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (wait4 pid false) with Failure _ -> ())
        live)

let started pid =
  Hashtbl.replace live pid ();
  pid

(* what a reaped child used *)
type usage = { code : int; rss_mb : float; cpu_s : float }

(* wait for [pid], killing it once [timeout] seconds have passed *)
let reap ?(timeout = 10.) pid =
  let deadline = now () +. timeout in
  let rec go () =
    match wait4 pid true with
    | 0, _, _, _ when now () < deadline ->
        Unix.sleepf 0.002;
        go ()
    | 0, _, _, _ ->
        Unix.kill pid Sys.sigkill;
        finish (wait4 pid false)
    | r -> finish r
  and finish (_, code, rss_kb, cpu_s) =
    Hashtbl.remove live pid;
    { code; rss_mb = float_of_int rss_kb /. 1024.; cpu_s }
  in
  go ()

(* ------------------------------------------------------------------ *)
(* the daemon                                                         *)

type daemon = { pid : int; ic : in_channel; oc : out_channel }

let spawn_daemon args =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let prog = program "umf_serve.exe" in
  let pid =
    started (Unix.create_process prog (Array.of_list (prog :: args)) req_r resp_w Unix.stderr)
  in
  Unix.close req_r;
  Unix.close resp_w;
  {
    pid;
    ic = Unix.in_channel_of_descr resp_r;
    oc = Unix.out_channel_of_descr req_w;
  }

let send d line =
  output_string d.oc line;
  output_char d.oc '\n';
  flush d.oc

let recv d = input_line d.ic

let call d line =
  send d line;
  recv d

(* EOF on stdin ends the daemon's serve loop; it has answered every
   request by the time the ledger stops it *)
let stop_daemon d =
  close_out_noerr d.oc;
  let usage = reap d.pid in
  close_in_noerr d.ic;
  usage

(* user + system CPU seconds of a live child *)
let cpu_seconds pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  (* fields after the parenthesised command name start at field 3;
     utime and stime are fields 14 and 15 *)
  let rest =
    let i = String.rindex line ')' + 2 in
    String.sub line i (String.length line - i)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. float_of_int (clk_tck ())

(* ------------------------------------------------------------------ *)
(* one-shot CLI runs                                                  *)

type outcome =
  | Exited of { usage : usage; out : string; err : string }
  | Timed_out

let run_cli ?(timeout = 30.) args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  Unix.close in_w;
  let prog = program "umf_cli.exe" in
  let pid = started (Unix.create_process prog (Array.of_list (prog :: args)) in_r out_w err_w) in
  List.iter Unix.close [ in_r; out_w; err_w ];
  let out = Buffer.create 4096 and err = Buffer.create 256 in
  let buf = Bytes.create 65536 in
  let deadline = now () +. timeout in
  let rec pump fds =
    let left = deadline -. now () in
    if fds = [] then true
    else if left <= 0. then begin
      List.iter Unix.close fds;
      false
    end
    else
      let ready, _, _ = retry_eintr (fun () -> Unix.select fds [] [] left) in
      pump
        (List.filter
           (fun fd ->
             if not (List.mem fd ready) then true
             else
               match retry_eintr (fun () -> Unix.read fd buf 0 (Bytes.length buf)) with
               | 0 ->
                   Unix.close fd;
                   false
               | n ->
                   Buffer.add_subbytes (if fd = out_r then out else err) buf 0 n;
                   true)
           fds)
  in
  if pump [ out_r; err_r ] then
    let usage = reap ~timeout:(Float.max 0.1 (deadline -. now ())) pid in
    Exited { usage; out = Buffer.contents out; err = Buffer.contents err }
  else begin
    Unix.kill pid Sys.sigkill;
    ignore (reap pid);
    Timed_out
  end
