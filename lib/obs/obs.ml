module Agg = struct
  type span_stat = { calls : int; total : float; max : float }

  type gauge_stat = { last : float; g_min : float; g_max : float; samples : int }

  type span_acc = { mutable calls : int; mutable total : float; mutable max : float }

  type gauge_acc = {
    mutable last : float;
    mutable g_min : float;
    mutable g_max : float;
    mutable samples : int;
  }

  type t = {
    lock : Mutex.t;
    spans : (string, span_acc) Hashtbl.t;
    cnts : (string, float ref) Hashtbl.t;
    ggs : (string, gauge_acc) Hashtbl.t;
    parent : t option;
        (* long-lived registry gauges propagate to: lets a service keep
           lifetime gauge envelopes (queue depth, cache size) while the
           child registry is an ephemeral per-request overlay that is
           discarded after each reply.  Only gauges climb — spans and
           counters stay local, so a parent that also records its own
           per-endpoint spans never double-counts totals. *)
  }

  let create ?parent () =
    {
      lock = Mutex.create ();
      spans = Hashtbl.create 16;
      cnts = Hashtbl.create 16;
      ggs = Hashtbl.create 16;
      parent;
    }

  let reset t =
    Mutex.lock t.lock;
    Hashtbl.reset t.spans;
    Hashtbl.reset t.cnts;
    Hashtbl.reset t.ggs;
    Mutex.unlock t.lock

  let record_span t name ~dur =
    Mutex.lock t.lock;
    (match Hashtbl.find_opt t.spans name with
    | Some a ->
        a.calls <- a.calls + 1;
        a.total <- a.total +. dur;
        if dur > a.max then a.max <- dur
    | None -> Hashtbl.add t.spans name { calls = 1; total = dur; max = dur });
    Mutex.unlock t.lock

  let record_counter t name v =
    Mutex.lock t.lock;
    (match Hashtbl.find_opt t.cnts name with
    | Some r -> r := !r +. v
    | None -> Hashtbl.add t.cnts name (ref v));
    Mutex.unlock t.lock

  let rec record_gauge t name v =
    Mutex.lock t.lock;
    (match Hashtbl.find_opt t.ggs name with
    | Some a ->
        a.last <- v;
        if v < a.g_min then a.g_min <- v;
        if v > a.g_max then a.g_max <- v;
        a.samples <- a.samples + 1
    | None ->
        Hashtbl.add t.ggs name { last = v; g_min = v; g_max = v; samples = 1 });
    Mutex.unlock t.lock;
    (* outside t.lock: parent chains never hold two locks at once *)
    match t.parent with None -> () | Some p -> record_gauge p name v

  let sorted rows = List.sort (fun (a, _) (b, _) -> compare a b) rows

  let span_stats t =
    Mutex.lock t.lock;
    let rows =
      Hashtbl.fold
        (fun name (a : span_acc) acc ->
          (name, ({ calls = a.calls; total = a.total; max = a.max } : span_stat))
          :: acc)
        t.spans []
    in
    Mutex.unlock t.lock;
    sorted rows

  let span_stat t name =
    Mutex.lock t.lock;
    let r =
      Option.map
        (fun (a : span_acc) ->
          ({ calls = a.calls; total = a.total; max = a.max } : span_stat))
        (Hashtbl.find_opt t.spans name)
    in
    Mutex.unlock t.lock;
    r

  let counters t =
    Mutex.lock t.lock;
    let rows = Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.cnts [] in
    Mutex.unlock t.lock;
    sorted rows

  let counter t name =
    Mutex.lock t.lock;
    let v = match Hashtbl.find_opt t.cnts name with Some r -> !r | None -> 0. in
    Mutex.unlock t.lock;
    v

  let gauges t =
    Mutex.lock t.lock;
    let rows =
      Hashtbl.fold
        (fun name (a : gauge_acc) acc ->
          ( name,
            ({ last = a.last; g_min = a.g_min; g_max = a.g_max; samples = a.samples }
              : gauge_stat) )
          :: acc)
        t.ggs []
    in
    Mutex.unlock t.lock;
    sorted rows

  let gauge_stat t name =
    Mutex.lock t.lock;
    let r =
      Option.map
        (fun (a : gauge_acc) ->
          ({ last = a.last; g_min = a.g_min; g_max = a.g_max; samples = a.samples }
            : gauge_stat))
        (Hashtbl.find_opt t.ggs name)
    in
    Mutex.unlock t.lock;
    r
end

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape_string b s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  let number_to_string v =
    (* JSON has no NaN/Infinity literal; degrade to null so a line
       never becomes unparseable *)
    if not (Float.is_finite v) then "null"
    else if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v

  let to_string t =
    let b = Buffer.create 128 in
    let rec go = function
      | Null -> Buffer.add_string b "null"
      | Bool v -> Buffer.add_string b (if v then "true" else "false")
      | Num v -> Buffer.add_string b (number_to_string v)
      | Str s -> escape_string b s
      | Arr vs ->
          Buffer.add_char b '[';
          List.iteri
            (fun i v ->
              if i > 0 then Buffer.add_char b ',';
              go v)
            vs;
          Buffer.add_char b ']'
      | Obj fields ->
          Buffer.add_char b '{';
          List.iteri
            (fun i (k, v) ->
              if i > 0 then Buffer.add_char b ',';
              escape_string b k;
              Buffer.add_char b ':';
              go v)
            fields;
          Buffer.add_char b '}'
    in
    go t;
    Buffer.contents b

  (* recursive-descent parser over a string; positions tracked in a
     ref.  Complete enough for the flat event objects we emit (and any
     nesting of them). *)
  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = failwith (Printf.sprintf "Obs.Json.of_string: %s at %d" msg !pos) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        value
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents b
        | '\\' -> (
            if !pos >= n then fail "unterminated escape";
            let e = s.[!pos] in
            advance ();
            match e with
            | '"' | '\\' | '/' ->
                Buffer.add_char b e;
                go ()
            | 'n' ->
                Buffer.add_char b '\n';
                go ()
            | 'r' ->
                Buffer.add_char b '\r';
                go ()
            | 't' ->
                Buffer.add_char b '\t';
                go ()
            | 'b' ->
                Buffer.add_char b '\b';
                go ()
            | 'f' ->
                Buffer.add_char b '\012';
                go ()
            | 'u' ->
                if !pos + 4 > n then fail "bad \\u escape";
                let hex = String.sub s !pos 4 in
                pos := !pos + 4;
                let code =
                  match int_of_string_opt ("0x" ^ hex) with
                  | Some c -> c
                  | None -> fail "bad \\u escape"
                in
                (* events are ASCII; map BMP code points crudely *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else Buffer.add_string b (Printf.sprintf "\\u%04x" code);
                go ()
            | _ -> fail "bad escape")
        | c -> Buffer.add_char b c; go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c when num_char c -> true | _ -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some v -> v
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end"
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected , or ]"
            in
            Arr (items [])
          end
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let field () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              (k, v)
            in
            let rec fields acc =
              let f = field () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields (f :: acc)
              | Some '}' ->
                  advance ();
                  List.rev (f :: acc)
              | _ -> fail "expected , or }"
            in
            Obj (fields [])
          end
      | Some _ -> Num (parse_number ())
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
end

module Trace = struct
  (* A long-running process (the serve daemon in particular) dies by
     signal, not by orderly return — an event sitting in the channel
     buffer at that moment is exactly the tail a post-mortem needs.  So
     the sink flushes after every record by default; [flush_interval]
     trades that durability for throughput by flushing on a bounded
     wall-clock interval instead (plus always on [close]). *)
  type t = {
    oc : out_channel;
    lock : Mutex.t;
    owned : bool;  (* [close] closes the channel only if we opened it *)
    flush_interval : float;
    mutable last_flush : float;
    mutable closed : bool;
  }

  let make ?(flush_interval = 0.) ~owned oc =
    if not (flush_interval >= 0.) then
      invalid_arg "Obs.Trace: flush_interval must be >= 0";
    {
      oc;
      lock = Mutex.create ();
      owned;
      flush_interval;
      last_flush = Unix.gettimeofday ();
      closed = false;
    }

  let to_channel ?flush_interval oc = make ?flush_interval ~owned:false oc

  let to_file ?flush_interval path =
    make ?flush_interval ~owned:true (open_out path)

  let emit t json =
    let line = Json.to_string json in
    Mutex.lock t.lock;
    if not t.closed then begin
      output_string t.oc line;
      output_char t.oc '\n';
      if t.flush_interval <= 0. then flush t.oc
      else begin
        let now = Unix.gettimeofday () in
        if now -. t.last_flush >= t.flush_interval then begin
          flush t.oc;
          t.last_flush <- now
        end
      end
    end;
    Mutex.unlock t.lock

  let flush t =
    Mutex.lock t.lock;
    if not t.closed then begin
      flush t.oc;
      t.last_flush <- Unix.gettimeofday ()
    end;
    Mutex.unlock t.lock

  let close t =
    Mutex.lock t.lock;
    if not t.closed then begin
      t.closed <- true;
      (try Stdlib.flush t.oc with Sys_error _ -> ());
      if t.owned then try close_out t.oc with Sys_error _ -> ()
    end;
    Mutex.unlock t.lock
end

(* wall clock relative to program start: event times stay small and
   readable, and contexts created at different moments share a
   timeline *)
let t_origin = Unix.gettimeofday ()

let default_clock () = Unix.gettimeofday () -. t_origin

type ctx = {
  aggs : Agg.t list;
  traces : Trace.t list;
  clock : unit -> float;
}

type t = Off | On of ctx

type span = { s_name : string; s_t0 : float }

let off = Off

let make ?(clock = default_clock) ?agg ?trace () =
  match (agg, trace) with
  | None, None -> Off
  | _ ->
      On
        {
          aggs = (match agg with Some a -> [ a ] | None -> []);
          traces = (match trace with Some t -> [ t ] | None -> []);
          clock;
        }

let with_agg t agg =
  match t with
  | Off -> On { aggs = [ agg ]; traces = []; clock = default_clock }
  | On c -> On { c with aggs = agg :: c.aggs }

let with_clock t clock =
  match t with Off -> Off | On c -> On { c with clock }

let enabled = function Off -> false | On _ -> true

let checkpoint = function Off -> () | On c -> ignore (c.clock ())

let null_span = { s_name = ""; s_t0 = 0. }

let span_begin t name =
  match t with
  | Off -> null_span
  | On c -> { s_name = name; s_t0 = c.clock () }

let trace_event c fields = List.iter (fun tr -> Trace.emit tr (Json.Obj fields)) c.traces

let span_end ?metrics t sp =
  match t with
  | Off -> ()
  | On c ->
      if sp.s_name <> "" then begin
        let now = c.clock () in
        let dur = now -. sp.s_t0 in
        List.iter (fun a -> Agg.record_span a sp.s_name ~dur) c.aggs;
        if c.traces <> [] then begin
          let extra =
            match metrics with
            | None -> []
            | Some ms -> List.map (fun (k, v) -> (k, Json.Num v)) ms
          in
          trace_event c
            ([
               ("ev", Json.Str "span");
               ("name", Json.Str sp.s_name);
               ("t", Json.Num now);
               ("dur", Json.Num dur);
             ]
            @ extra)
        end
      end

let span t name f =
  match t with
  | Off -> f ()
  | On _ ->
      let sp = span_begin t name in
      let r =
        try f ()
        with e ->
          span_end t sp;
          raise e
      in
      span_end t sp;
      r

let record_span ?metrics t name ~dur =
  match t with
  | Off -> ()
  | On c ->
      List.iter (fun a -> Agg.record_span a name ~dur) c.aggs;
      if c.traces <> [] then begin
        let extra =
          match metrics with
          | None -> []
          | Some ms -> List.map (fun (k, v) -> (k, Json.Num v)) ms
        in
        trace_event c
          ([
             ("ev", Json.Str "span");
             ("name", Json.Str name);
             ("t", Json.Num (c.clock ()));
             ("dur", Json.Num dur);
           ]
          @ extra)
      end

let add t name v =
  match t with
  | Off -> ()
  | On c ->
      List.iter (fun a -> Agg.record_counter a name v) c.aggs;
      if c.traces <> [] then
        trace_event c
          [
            ("ev", Json.Str "count");
            ("name", Json.Str name);
            ("t", Json.Num (c.clock ()));
            ("v", Json.Num v);
          ]

let count t name n = if n <> 0 then add t name (float_of_int n)

let gauge t name v =
  match t with
  | Off -> ()
  | On c ->
      List.iter (fun a -> Agg.record_gauge a name v) c.aggs;
      if c.traces <> [] then
        trace_event c
          [
            ("ev", Json.Str "gauge");
            ("name", Json.Str name);
            ("t", Json.Num (c.clock ()));
            ("v", Json.Num v);
          ]
