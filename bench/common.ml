(* Shared output helpers for the experiment harness. *)

(* worker pool shared by the experiments that opt into --jobs; None
   (the default) keeps every experiment on its historical sequential
   path *)
let pool : Umf.Runtime.Pool.t option ref = ref None

let dump_dir : string option ref = ref None

let current_slug = ref "experiment"

let dump_counter = ref 0

let set_dump dir =
  dump_dir := dir;
  match dir with
  | Some d when not (Sys.file_exists d) -> Unix.mkdir d 0o755
  | _ -> ()

let slug_of_title title =
  let stop =
    match String.index_opt title ':' with
    | Some i -> i
    | None -> String.length title
  in
  String.sub title 0 stop |> String.lowercase_ascii
  |> String.map (fun c ->
         if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then c else '_')

let banner title =
  current_slug := slug_of_title title;
  dump_counter := 0;
  Printf.printf "\n== %s ==\n" title

let row fmt = Printf.printf fmt

let header cols = print_endline (String.concat "\t" cols)

(* Emit a data series to stdout and, when dumping is enabled, to
   <dir>/<slug>[_k].dat together with a matching gnuplot script. *)
let series cols rows =
  header cols;
  let lines =
    List.map
      (fun r -> String.concat "\t" (List.map (Printf.sprintf "%.4f") r))
      rows
  in
  List.iter print_endline lines;
  match !dump_dir with
  | None -> ()
  | Some dir ->
      incr dump_counter;
      let base =
        if !dump_counter = 1 then !current_slug
        else Printf.sprintf "%s_%d" !current_slug !dump_counter
      in
      let dat = Filename.concat dir (base ^ ".dat") in
      let oc = open_out dat in
      output_string oc (String.concat "\t" cols ^ "\n");
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      close_out oc;
      let gp = Filename.concat dir (base ^ ".gp") in
      let oc = open_out gp in
      Printf.fprintf oc
        "set datafile separator '\\t'\n\
         set key autotitle columnhead outside\n\
         set xlabel '%s'\n\
         plot for [i=2:%d] '%s.dat' using 1:i with lines lw 2\n\
         pause -1\n"
        (match cols with c :: _ -> c | [] -> "x")
        (List.length cols) base;
      close_out oc

let claim name ok detail =
  Printf.printf "CLAIM %-52s %s  (%s)\n" name (if ok then "PASS" else "FAIL") detail

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* the commit the measured tree is based on, marked "+dirty" when the
   tree has uncommitted changes; "unknown" outside a git checkout *)
let git_commit () =
  let read cmd =
    try
      let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
      let out = In_channel.input_all ic in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> Some (String.trim out)
      | _ -> None
    with Unix.Unix_error _ -> None
  in
  match read "git rev-parse --short HEAD" with
  | None | Some "" -> "unknown"
  | Some head -> (
      match read "git status --porcelain --untracked-files=no" with
      | Some "" -> head
      | _ -> head ^ "+dirty")
