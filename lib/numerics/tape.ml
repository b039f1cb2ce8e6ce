(* A flat instruction tape over a slot-indexed workspace.

   The workspace is laid out [constants | variables | parameters |
   temporaries]: constants are preloaded once by [make_ws], the
   variable and parameter zones are refreshed from x/θ at the start of
   every run (so there are no load instructions at all), and each
   executed instruction writes one temporary.  Instructions are packed
   into a single int array with stride 5 (op, dst, a, b, c) and the
   inner loop uses unchecked accesses — every index is produced and
   bounds-validated by [compile], and the public entry points check
   the workspace and input dimensions before running.

   A peephole pass fuses a single-use [Mul] into the [Add]/[Sub]
   consuming it (muladd/submul/mulsub), which cuts the dispatch count
   of mass-action drifts by a third without changing results: the
   fused forms evaluate fl(fl(a·b) ± c), exactly the association the
   unfused instructions produce. *)

let op_add = 0

let op_sub = 1

let op_mul = 2

let op_div = 3

let op_neg = 4

let op_pow = 5

let op_min = 6

let op_max = 7

let op_ite = 8

let op_muladd = 9 (* a*b + c *)

let op_submul = 10 (* a - b*c *)

let op_mulsub = 11 (* a*b - c *)

type t = {
  n_slots : int;
  n_instrs : int;
  code : int array;  (* stride 5: op, dst, a, b, c; b is the exponent
                        for pow, c is unused outside ite/fused ops *)
  const_val : float array;  (* consts occupy slots 0 .. n_consts-1 *)
  var_base : int;
  theta_base : int;
  outs : int array;
  n_vars : int;  (* minimum admissible [Vec.dim x] *)
  n_thetas : int;
}

let n_outputs t = Array.length t.outs

let n_instructions t = t.n_instrs

let n_slots t = t.n_slots

let rec count_nodes (e : Expr.t) =
  match e with
  | Const _ | Var _ | Theta _ -> 1
  | Neg a | Pow (a, _) -> 1 + count_nodes a
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Min (a, b) | Max (a, b)
    ->
      1 + count_nodes a + count_nodes b
  | Ite (g, a, b) -> 1 + count_nodes g + count_nodes a + count_nodes b

let n_nodes exprs = Array.fold_left (fun n e -> n + count_nodes e) 0 exprs

(* provisional operands during compilation: which zone, which index *)
type operand = Oconst of int | Ovar of int | Otheta of int | Otemp of int

type pinstr = {
  mutable op : int;
  dst : int;  (* temp index *)
  mutable a : operand;
  mutable b : operand;  (* [Oconst exponent] abused for pow *)
  mutable c : operand;
  mutable dead : bool;
}

let no_operand = Oconst 0

let compile exprs =
  let tbl : (Expr.t, operand) Hashtbl.t = Hashtbl.create 64 in
  let instrs = ref [] in
  let n_temps = ref 0 in
  let consts = ref [] in
  let n_consts = ref 0 in
  let n_vars = ref 0 in
  let n_thetas = ref 0 in
  let emit op a b c =
    let dst = !n_temps in
    incr n_temps;
    instrs := { op; dst; a; b; c; dead = false } :: !instrs;
    Otemp dst
  in
  let rec go (e : Expr.t) =
    match Hashtbl.find_opt tbl e with
    | Some operand -> operand
    | None ->
        let operand =
          match e with
          | Const v ->
              let s = !n_consts in
              incr n_consts;
              consts := v :: !consts;
              Oconst s
          | Var i ->
              if i >= !n_vars then n_vars := i + 1;
              Ovar i
          | Theta j ->
              if j >= !n_thetas then n_thetas := j + 1;
              Otheta j
          | Add (a, b) ->
              let sa = go a in
              let sb = go b in
              emit op_add sa sb no_operand
          | Sub (a, b) ->
              let sa = go a in
              let sb = go b in
              emit op_sub sa sb no_operand
          | Mul (a, b) ->
              let sa = go a in
              let sb = go b in
              emit op_mul sa sb no_operand
          | Div (a, b) ->
              let sa = go a in
              let sb = go b in
              emit op_div sa sb no_operand
          | Neg a -> emit op_neg (go a) no_operand no_operand
          | Pow (a, n) -> emit op_pow (go a) (Oconst n) no_operand
          | Min (a, b) ->
              let sa = go a in
              let sb = go b in
              emit op_min sa sb no_operand
          | Max (a, b) ->
              let sa = go a in
              let sb = go b in
              emit op_max sa sb no_operand
          | Ite (g, a, b) ->
              let sg = go g in
              let sa = go a in
              let sb = go b in
              emit op_ite sg sa sb
        in
        Hashtbl.add tbl e operand;
        operand
  in
  let outs_op = Array.map go exprs in
  let instrs = Array.of_list (List.rev !instrs) in
  (* ---- fusion: a Mul consumed exactly once by an Add/Sub ---- *)
  let use = Array.make (Stdlib.max 1 !n_temps) 0 in
  let bump = function Otemp i -> use.(i) <- use.(i) + 1 | _ -> () in
  Array.iter
    (fun ins ->
      bump ins.a;
      if ins.op <> op_pow then bump ins.b;
      if ins.op = op_ite then bump ins.c)
    instrs;
  Array.iter bump outs_op;
  let producer = Array.make (Stdlib.max 1 !n_temps) (-1) in
  Array.iteri
    (fun k ins -> if ins.op = op_mul then producer.(ins.dst) <- k)
    instrs;
  let fusable = function
    | Otemp i when producer.(i) >= 0 && use.(i) = 1 -> Some producer.(i)
    | _ -> None
  in
  Array.iter
    (fun ins ->
      if not ins.dead then
        if ins.op = op_add then (
          match fusable ins.a with
          | Some j ->
              (* fl(a·b) + c, the order Add(Mul(a,b), c) evaluates *)
              instrs.(j).dead <- true;
              ins.op <- op_muladd;
              ins.c <- ins.b;
              ins.a <- instrs.(j).a;
              ins.b <- instrs.(j).b
          | None -> (
              match fusable ins.b with
              | Some j ->
                  instrs.(j).dead <- true;
                  ins.op <- op_muladd;
                  ins.c <- ins.a;
                  ins.a <- instrs.(j).a;
                  ins.b <- instrs.(j).b
              | None -> ()))
        else if ins.op = op_sub then
          match fusable ins.b with
          | Some j ->
              (* a - fl(b·c) *)
              instrs.(j).dead <- true;
              ins.op <- op_submul;
              ins.c <- instrs.(j).b;
              ins.b <- instrs.(j).a
          | None -> (
              match fusable ins.a with
              | Some j ->
                  (* fl(a·b) - c *)
                  instrs.(j).dead <- true;
                  ins.op <- op_mulsub;
                  ins.c <- ins.b;
                  ins.a <- instrs.(j).a;
                  ins.b <- instrs.(j).b
              | None -> ()))
    instrs;
  (* ---- slot assignment and packing ---- *)
  let var_base = !n_consts in
  let theta_base = var_base + !n_vars in
  let temp_base = theta_base + !n_thetas in
  let slot = function
    | Oconst k -> k
    | Ovar i -> var_base + i
    | Otheta j -> theta_base + j
    | Otemp m -> temp_base + m
  in
  let live = Array.of_list (List.filter (fun i -> not i.dead)
                              (Array.to_list instrs)) in
  let n = Array.length live in
  let code = Array.make (Stdlib.max 1 (5 * n)) 0 in
  Array.iteri
    (fun k ins ->
      let i = 5 * k in
      code.(i) <- ins.op;
      code.(i + 1) <- temp_base + ins.dst;
      code.(i + 2) <- slot ins.a;
      (code.(i + 3) <-
         (match (ins.op, ins.b) with
         | 5 (* pow *), Oconst e -> e
         | _ -> slot ins.b));
      code.(i + 4) <- slot ins.c)
    live;
  let const_val = Array.make (Stdlib.max 1 !n_consts) 0. in
  List.iteri (fun k v -> const_val.(!n_consts - 1 - k) <- v) !consts;
  {
    n_slots = Stdlib.max 1 (temp_base + !n_temps);
    n_instrs = n;
    code;
    const_val;
    var_base;
    theta_base;
    outs = Array.map slot outs_op;
    n_vars = !n_vars;
    n_thetas = !n_thetas;
  }

let make_ws t =
  let ws = Array.make t.n_slots 0. in
  Array.blit t.const_val 0 ws 0 (Stdlib.min t.var_base t.n_slots);
  ws

(* [Array.length] rather than [Vec.dim]: the latter is a value alias,
   which the non-flambda compiler turns into an indirect closure call
   — measurable on a hot path this short *)
let[@inline] check t ~ws_len ~(x : float array) ~(th : float array) =
  if ws_len <> t.n_slots then invalid_arg "Tape: workspace size mismatch";
  if Array.length x < t.n_vars then invalid_arg "Tape: variable out of range";
  if Array.length th < t.n_thetas then invalid_arg "Tape: theta out of range"

(* the hot loop: all indices were produced (and thus bounds-checked)
   by [compile]; the x/th reads are guarded by [check] in every public
   entry point *)
let[@inline] run t ws (x : float array) (th : float array) =
  for i = 0 to t.n_vars - 1 do
    Array.unsafe_set ws (t.var_base + i) (Array.unsafe_get x i)
  done;
  for j = 0 to t.n_thetas - 1 do
    Array.unsafe_set ws (t.theta_base + j) (Array.unsafe_get th j)
  done;
  let code = t.code in
  (* every branch stores directly so the float result is never boxed *)
  for k = 0 to t.n_instrs - 1 do
    let i = 5 * k in
    let dst = Array.unsafe_get code (i + 1)
    and a = Array.unsafe_get code (i + 2)
    and b = Array.unsafe_get code (i + 3) in
    match Array.unsafe_get code i with
    | 0 (* add *) ->
        Array.unsafe_set ws dst (Array.unsafe_get ws a +. Array.unsafe_get ws b)
    | 1 (* sub *) ->
        Array.unsafe_set ws dst (Array.unsafe_get ws a -. Array.unsafe_get ws b)
    | 2 (* mul *) ->
        Array.unsafe_set ws dst (Array.unsafe_get ws a *. Array.unsafe_get ws b)
    | 3 (* div *) ->
        Array.unsafe_set ws dst (Array.unsafe_get ws a /. Array.unsafe_get ws b)
    | 4 (* neg *) -> Array.unsafe_set ws dst (-.Array.unsafe_get ws a)
    | 5 (* pow *) ->
        (* same recurrence as Expr.eval: left fold from 1. *)
        let base = Array.unsafe_get ws a in
        let acc = ref 1. in
        for _ = 1 to b do
          acc := !acc *. base
        done;
        Array.unsafe_set ws dst !acc
    | 6 (* min *) ->
        Array.unsafe_set ws dst
          (Float.min (Array.unsafe_get ws a) (Array.unsafe_get ws b))
    | 7 (* max *) ->
        Array.unsafe_set ws dst
          (Float.max (Array.unsafe_get ws a) (Array.unsafe_get ws b))
    | 8 (* ite *) ->
        Array.unsafe_set ws dst
          (if Array.unsafe_get ws a <= 0. then Array.unsafe_get ws b
           else Array.unsafe_get ws (Array.unsafe_get code (i + 4)))
    | 9 (* muladd *) ->
        Array.unsafe_set ws dst
          ((Array.unsafe_get ws a *. Array.unsafe_get ws b)
          +. Array.unsafe_get ws (Array.unsafe_get code (i + 4)))
    | 10 (* submul *) ->
        Array.unsafe_set ws dst
          (Array.unsafe_get ws a
          -. Array.unsafe_get ws b
             *. Array.unsafe_get ws (Array.unsafe_get code (i + 4)))
    | _ (* mulsub *) ->
        Array.unsafe_set ws dst
          ((Array.unsafe_get ws a *. Array.unsafe_get ws b)
          -. Array.unsafe_get ws (Array.unsafe_get code (i + 4)))
  done

let eval_into t ~ws ~x ~th ~(out : float array) =
  check t ~ws_len:(Array.length ws) ~x ~th;
  if Array.length out <> Array.length t.outs then
    invalid_arg "Tape.eval_into: output size mismatch";
  run t ws x th;
  let outs = t.outs in
  for i = 0 to Array.length outs - 1 do
    Array.unsafe_set out i (Array.unsafe_get ws (Array.unsafe_get outs i))
  done

(* interval mode: same tape, interval slots *)

let make_interval_ws t =
  let ws = Array.make t.n_slots (Interval.of_float 0.) in
  for k = 0 to Stdlib.min t.var_base t.n_slots - 1 do
    ws.(k) <- Interval.of_float t.const_val.(k)
  done;
  ws

let run_interval t (ws : Interval.t array) x th =
  for i = 0 to t.n_vars - 1 do
    ws.(t.var_base + i) <- x.(i)
  done;
  for j = 0 to t.n_thetas - 1 do
    ws.(t.theta_base + j) <- th.(j)
  done;
  let code = t.code in
  for k = 0 to t.n_instrs - 1 do
    let i = 5 * k in
    let dst = code.(i + 1) and a = code.(i + 2) and b = code.(i + 3) in
    let r =
      match code.(i) with
      | 0 -> Interval.add ws.(a) ws.(b)
      | 1 -> Interval.sub ws.(a) ws.(b)
      | 2 -> Interval.mul ws.(a) ws.(b)
      | 3 -> Interval.div ws.(a) ws.(b)
      | 4 -> Interval.neg ws.(a)
      | 5 ->
          (* even powers via [sq], exactly as Expr.eval_interval *)
          let ia = ws.(a) in
          let rec go n =
            if n = 0 then Interval.of_float 1.
            else if n mod 2 = 0 then Interval.sq (go (n / 2))
            else Interval.mul ia (go (n - 1))
          in
          go b
      | 6 -> Interval.min_ ws.(a) ws.(b)
      | 7 -> Interval.max_ ws.(a) ws.(b)
      | 8 ->
          let ig = ws.(a) in
          if Interval.hi ig <= 0. then ws.(b)
          else if Interval.lo ig > 0. then ws.(code.(i + 4))
          else Interval.hull ws.(b) ws.(code.(i + 4))
      | 9 -> Interval.add (Interval.mul ws.(a) ws.(b)) ws.(code.(i + 4))
      | 10 -> Interval.sub ws.(a) (Interval.mul ws.(b) ws.(code.(i + 4)))
      | _ -> Interval.sub (Interval.mul ws.(a) ws.(b)) ws.(code.(i + 4))
    in
    ws.(dst) <- r
  done

let eval_interval_into t ~ws ~x ~th =
  if Array.length ws <> t.n_slots then
    invalid_arg "Tape: workspace size mismatch";
  if Array.length x < t.n_vars then invalid_arg "Tape: variable out of range";
  if Array.length th < t.n_thetas then invalid_arg "Tape: theta out of range";
  run_interval t ws x th;
  Array.map (fun s -> ws.(s)) t.outs

(* ---- batch mode: structure-of-arrays kernel over chunks of rows ----

   The batch workspace is the scalar workspace with every slot widened
   to [chunk] lanes, slot-major: lane l of slot s lives at
   [s * chunk + l].  Constants are broadcast across all lanes once at
   scratch creation; variables and parameters are gathered from the
   row-major input matrices at the head of each chunk; then each
   instruction is dispatched ONCE and executed across all live lanes,
   so the per-instruction dispatch cost is amortised over the chunk.

   Every lane performs exactly the scalar op sequence ([Float.min],
   the [pow] left fold, the [<= 0.] ite guard), so batch output is
   bit-identical to a scalar [run] loop over the same rows — which is
   what makes chunk-parallel execution deterministic: chunks write
   disjoint output rows and each row's value does not depend on which
   domain computed it. *)

let make_batch_ws t chunk =
  let bws = Array.make (t.n_slots * chunk) 0. in
  for k = 0 to Stdlib.min t.var_base t.n_slots - 1 do
    let v = t.const_val.(k) in
    let base = k * chunk in
    for l = 0 to chunk - 1 do
      bws.(base + l) <- v
    done
  done;
  bws

(* The chunk kernel (tape_batch_stubs.c): over one chunk of [m <= chunk]
   rows starting at row [r0], gather the inputs into the SoA workspace,
   run each instruction's lane loop compiled (and auto-vectorised) with
   the scalar [run]'s op semantics bit for bit, and scatter the outputs.
   [desc] packs the tape-shape integers the kernel needs, [geom] the
   per-chunk ones.  The stub allocates nothing and never re-enters the
   runtime. *)
external batch_chunk_c :
  int array ->
  int array ->
  float array ->
  float array ->
  float array ->
  float array ->
  int array ->
  unit = "umf_tape_batch_chunk_byte" "umf_tape_batch_chunk"
[@@noalloc]

module Plan = struct
  type runner = int -> (int -> unit) -> unit

  type nonrec t = {
    tape : t;
    chunk : int;
    desc : int array;  (* [| n_instrs; n_vars; n_thetas; var_base;
                            theta_base; n_outs; out_slots... |] *)
    ws_key : float array Domain.DLS.key;
    iws_key : Interval.t array Domain.DLS.key;
    bws_key : float array Domain.DLS.key;
  }

  let make ?(chunk = 64) tape =
    if chunk < 1 then invalid_arg "Tape.Plan.make: chunk must be >= 1";
    {
      tape;
      chunk;
      desc =
        Array.append
          [|
            tape.n_instrs;
            tape.n_vars;
            tape.n_thetas;
            tape.var_base;
            tape.theta_base;
            Array.length tape.outs;
          |]
          tape.outs;
      ws_key = Domain.DLS.new_key (fun () -> make_ws tape);
      iws_key = Domain.DLS.new_key (fun () -> make_interval_ws tape);
      bws_key = Domain.DLS.new_key (fun () -> make_batch_ws tape chunk);
    }

  let tape p = p.tape

  let chunk p = p.chunk

  let run p ~x ~th ~out =
    eval_into p.tape ~ws:(Domain.DLS.get p.ws_key) ~x ~th ~out

  let run_alloc p ~x ~th =
    let out = Vec.zeros (Array.length p.tape.outs) in
    run p ~x ~th ~out;
    out

  let run_interval p ~x ~th =
    eval_interval_into p.tape ~ws:(Domain.DLS.get p.iws_key) ~x ~th

  let seq_runner n f =
    for i = 0 to n - 1 do
      f i
    done

  let run_batch ?(par = seq_runner) p ~(xs : Mat.t) ~(ths : Mat.t)
      ~(out : Mat.t) =
    let t = p.tape in
    let n = Mat.rows xs in
    let shapes () =
      Printf.sprintf "xs %dx%d, ths %dx%d, out %dx%d" (Mat.rows xs)
        (Mat.cols xs) (Mat.rows ths) (Mat.cols ths) (Mat.rows out)
        (Mat.cols out)
    in
    if n = 0 then
      invalid_arg
        (Printf.sprintf "Tape.Plan.run_batch: empty batch (%s)" (shapes ()));
    if Mat.rows ths <> n || Mat.rows out <> n then
      invalid_arg
        (Printf.sprintf "Tape.Plan.run_batch: batch row mismatch (%s)"
           (shapes ()));
    if Mat.cols xs < t.n_vars || Mat.cols ths < t.n_thetas then
      invalid_arg
        (Printf.sprintf
           "Tape.Plan.run_batch: inputs too narrow (%s; tape needs >= %d \
            vars, >= %d thetas)"
           (shapes ()) t.n_vars t.n_thetas);
    if Mat.cols out <> Array.length t.outs then
      invalid_arg
        (Printf.sprintf
           "Tape.Plan.run_batch: output width mismatch (%s; tape has %d \
            outputs)"
           (shapes ()) (Array.length t.outs));
    let chunk = p.chunk in
    let xd = Mat.data xs and td = Mat.data ths and od = Mat.data out in
    let xc = Mat.cols xs and tc = Mat.cols ths and oc = Mat.cols out in
    let n_chunks = (n + chunk - 1) / chunk in
    let bws_key = p.bws_key and code = t.code and desc = p.desc in
    par n_chunks (fun ci ->
        let bws = Domain.DLS.get bws_key in
        let r0 = ci * chunk in
        let m = Stdlib.min chunk (n - r0) in
        batch_chunk_c code desc bws xd td od [| chunk; m; r0; xc; tc; oc |])
end

(* static-analysis view: decode the packed int-code back into a typed
   instruction stream *)

type slot_kind =
  | Slot_const of float
  | Slot_var of int
  | Slot_theta of int
  | Slot_temp

type vinstr =
  | V_add of int * int
  | V_sub of int * int
  | V_mul of int * int
  | V_div of int * int
  | V_neg of int
  | V_pow of int * int
  | V_min of int * int
  | V_max of int * int
  | V_ite of int * int * int
  | V_muladd of int * int * int
  | V_submul of int * int * int
  | V_mulsub of int * int * int

let instructions t =
  Array.init t.n_instrs (fun k ->
      let i = 5 * k in
      let dst = t.code.(i + 1)
      and a = t.code.(i + 2)
      and b = t.code.(i + 3)
      and c = t.code.(i + 4) in
      let ins =
        match t.code.(i) with
        | 0 -> V_add (a, b)
        | 1 -> V_sub (a, b)
        | 2 -> V_mul (a, b)
        | 3 -> V_div (a, b)
        | 4 -> V_neg a
        | 5 -> V_pow (a, b)
        | 6 -> V_min (a, b)
        | 7 -> V_max (a, b)
        | 8 -> V_ite (a, b, c)
        | 9 -> V_muladd (a, b, c)
        | 10 -> V_submul (a, b, c)
        | _ -> V_mulsub (a, b, c)
      in
      (dst, ins))

let slot_kind t s =
  if s < 0 || s >= t.n_slots then invalid_arg "Tape.slot_kind: out of range";
  if s < t.var_base then
    (* a degenerate tape has one slot but possibly zero constants *)
    Slot_const (if s < Array.length t.const_val then t.const_val.(s) else 0.)
  else if s < t.theta_base then Slot_var (s - t.var_base)
  else if s < t.theta_base + t.n_thetas then Slot_theta (s - t.theta_base)
  else Slot_temp

let output_slots t = Array.copy t.outs

let input_dims t = (t.n_vars, t.n_thetas)
