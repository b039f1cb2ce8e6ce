(* Output checks: every answer the benchmark times is also validated,
   so a change that speeds a program up by breaking it fails the run. *)

module Json = Umf.Obs.Json

(* index of [sub] in [s] at or after [from], -1 if absent; allocation
   free, since it runs once per response on the hit path *)
let find s sub from =
  let n = String.length s and m = String.length sub in
  let rec matches i k = k = m || (s.[i + k] = sub.[k] && matches i (k + 1)) in
  let rec go i = if i + m > n then -1 else if matches i 0 then i else go (i + 1) in
  go from

(* the payload of a success line: the bytes of its "result" and "cert"
   members, everything but the id, cache flag and timing fields *)
let payload resp =
  let i = find resp "\"result\":" 0 in
  if i < 0 then None else Some (String.sub resp i (String.length resp - i - 1))

let is_cached resp = find resp "\"cached\":true" 0 >= 0

(* a numeric field of a response line, read without a full parse *)
let number resp key =
  let k = "\"" ^ key ^ "\":" in
  let i = find resp k 0 in
  if i < 0 then Float.nan
  else
    let j = i + String.length k in
    let e = ref j in
    while !e < String.length resp && resp.[!e] <> ',' && resp.[!e] <> '}' do
      incr e
    done;
    Option.value ~default:Float.nan (float_of_string_opt (String.sub resp j (!e - j)))

let error_kind resp =
  match Json.of_string resp with
  | exception Failure _ -> "unparsable"
  | j -> (
      match Option.bind (Json.member "error" j) (Json.member "kind") with
      | Some (Json.Str k) -> k
      | _ -> "unknown")

(* ------------------------------------------------------------------ *)
(* daemon payloads                                                    *)

let nums = function
  | Some (Json.Arr l) ->
      Some (List.map (function Json.Num f -> f | _ -> Float.nan) l)
  | _ -> None

let all_finite = List.for_all Float.is_finite

let cert_problems (c : Json.t option) =
  match c with
  | Some (Json.Obj _ as c) ->
      let num k = match Json.member k c with Some (Json.Num f) -> f | _ -> Float.nan in
      let lo = num "lo" and hi = num "hi" in
      let budget =
        List.filter_map
          (fun line ->
            match Option.bind (Json.member "budget" c) (Json.member line) with
            | Some (Json.Num v) when Float.is_finite v && v >= 0. -> None
            | _ -> Some ("cert budget line " ^ line ^ " missing or invalid"))
          [ "discretisation"; "truncation"; "rounding"; "optimiser" ]
      in
      (if Float.is_finite lo && Float.is_finite hi && lo <= hi then []
       else [ Printf.sprintf "cert interval [%g, %g] not finite and ordered" lo hi ])
      @ budget
  | _ -> [ "no cert" ]

let ordered name lower upper =
  match (lower, upper) with
  | Some lo, Some hi
    when List.length lo = List.length hi && all_finite lo && all_finite hi ->
      if List.for_all2 ( <= ) lo hi then [] else [ name ^ ": lower > upper" ]
  | _ -> [ name ^ ": missing or non-finite bounds" ]

let result_problems op (r : Json.t) =
  let m k = Json.member k r in
  match op with
  | "bounds" -> ordered "bounds" (nums (m "lower")) (nums (m "upper"))
  | "hull" -> (
      match (m "lower", m "upper", m "final_certs") with
      | Some (Json.Arr lo), Some (Json.Arr hi), Some (Json.Arr certs)
        when List.length lo = List.length hi ->
          List.concat
            (List.map2 (fun a b -> ordered "hull" (nums (Some a)) (nums (Some b))) lo hi)
          @ List.concat_map (fun c -> cert_problems (Some c)) certs
      | _ -> [ "hull: malformed result" ])
  | "steady" -> (
      match m "area" with
      | Some (Json.Num a) when Float.is_finite a && a >= 0. -> []
      | _ -> [ "steady: area missing or invalid" ])
  | _ -> [ "unexpected op " ^ op ]

(* problems in one response line, none when it is sound: ok, a cert
   with all four budget lines and a finite lo <= hi, finite results
   with lower <= upper element-wise *)
let response_problems ~op resp =
  match Json.of_string resp with
  | exception Failure m -> [ "unparsable response: " ^ m ]
  | j -> (
      match (Json.member "ok" j, Json.member "result" j) with
      | Some (Json.Bool true), Some r ->
          cert_problems (Json.member "cert" j) @ result_problems op r
      | _ -> [ "not ok: " ^ resp ])

(* ------------------------------------------------------------------ *)
(* CLI output                                                         *)

(* the `# states=N' line, a header, then tab-separated numeric rows
   (stationary rows lead with the variable name) *)
let cli_problems mode out =
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  let states =
    match lines with
    | l :: _ -> ( try Scanf.sscanf l "# states=%d" Option.some with _ -> None)
    | [] -> None
  in
  let rows =
    match List.filter (fun l -> l.[0] <> '#') lines with
    | [] -> []
    | _header :: rows -> rows
  in
  let values =
    List.map
      (fun l ->
        let fs =
          match String.split_on_char '\t' l with
          | _ :: rest when mode = "stationary" -> rest
          | fs -> fs
        in
        List.map (fun f -> Option.value ~default:Float.nan (float_of_string_opt f)) fs)
      rows
  in
  let violated pred = List.exists (fun vs -> not (pred vs)) values in
  List.concat
    [
      (match states with Some n when n >= 1 -> [] | _ -> [ "no state count" ]);
      (if rows = [] then [ "no rows" ] else []);
      (if List.for_all all_finite values then [] else [ "non-finite value" ]);
      (match mode with
      | "bounds" ->
          (* t, mean, min, max, escaped *)
          if violated (function [ _; mean; lo; hi; _ ] -> lo <= mean && mean <= hi | _ -> false)
          then [ "bounds do not bracket the mean" ]
          else []
      | "first-passage" ->
          if violated (function [ _; lo; hi ] -> lo <= hi | _ -> false) then
            [ "hit_lower > hit_upper" ]
          else []
      | _ -> []);
    ]
