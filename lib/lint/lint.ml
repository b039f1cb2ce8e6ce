open Umf_numerics
module Model = Umf_meanfield.Model

type severity = Error | Warning | Info

type subject =
  | Model
  | Transition of string
  | Coord of int
  | Param of int

type finding = {
  code : string;
  severity : severity;
  subject : subject;
  message : string;
}

type coord_class = {
  affine_theta : bool;
  multilinear : bool;
  smooth : bool;
}

type conservation = { weights : Vec.t; pretty : string }

type report = {
  model : string;
  var_names : string array;
  theta_names : string array;
  findings : finding list;
  classes : coord_class array;
  conservation : conservation list;
  simplex_preserving : bool;
  lipschitz : float option;
  vertex_certified : bool;
  recommended_opt : [ `Vertices | `Box of int ];
  tape : Tape_check.report option;
}

let code_table =
  [
    ("L001", "transition rate is certifiably negative on the domain");
    ("L002", "transition rate cannot be certified non-negative");
    ("L003", "rate references a state variable out of range");
    ("L004", "rate references a parameter out of range");
    ("L005", "change vector has the wrong dimension");
    ("L006", "a divisor can contain zero: division-by-zero freedom not certified");
    ("L101", "drift affine in theta: vertex enumeration of the Hamiltonian is exact");
    ("L102", "drift not affine in theta: vertex enumeration may miss the arg max");
    ("L103", "drift multilinear: hull face extrema are attained at box vertices");
    ("L201", "conservation law (left null space of the change-vector matrix)");
    ("L202", "drift preserves the unit simplex");
    ("L301", "certified Lipschitz bound on the drift Jacobian");
    ("L302", "drift only piecewise-smooth (Min/Max/Ite kinks)");
    ("L303", "Lipschitz bound not certifiable over the domain");
    ("L401", "state variable never read by a rate nor moved by a change vector");
    ("L402", "parameter never referenced by any rate");
    ("L403", "transition rate is identically zero");
    ("L404", "transition can push a coordinate below zero");
    ("C001", "drift enclosure unbounded: derived certificate values are vacuous");
    ("C002", "rounding budget line infinite: float-safety not certifiable");
    ("C003", "rate enclosure unbounded: sweep error ledgers budget at an infinite exit rate");
    ("C101", "composed certificate vacuous: downstream Cert consumers learn nothing");
  ]

(* L- and C-codes here, T-codes in {!Tape_check}: one lookup covers all
   three tiers *)
let describe code =
  match List.assoc_opt code code_table with
  | Some d -> d
  | None -> Tape_check.describe code

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let tol = 1e-9

(* ------------------------------------------------------------------ *)
(* expression helpers                                                  *)

let rec has_kink e =
  match (e : Expr.t) with
  | Const _ | Var _ | Theta _ -> false
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
      has_kink a || has_kink b
  | Neg a | Pow (a, _) -> has_kink a
  | Min (_, _) | Max (_, _) | Ite (_, _, _) -> true

(* ------------------------------------------------------------------ *)
(* conservation-law pretty printing                                    *)

let pretty_weights var_names (w : Vec.t) =
  let n = Vec.dim w in
  let smallest = ref Float.infinity in
  for i = 0 to n - 1 do
    let a = Float.abs w.(i) in
    if a > tol && a < !smallest then smallest := a
  done;
  let scaled =
    if Float.is_finite !smallest then Vec.scale (1. /. !smallest) w else w
  in
  let integral =
    Array.for_all
      (fun v -> Float.abs (v -. Float.round v) <= 1e-6 *. Float.max 1. (Float.abs v))
      scaled
  in
  let coeff v =
    if integral then Printf.sprintf "%.0f" (Float.abs (Float.round v))
    else Printf.sprintf "%.3g" (Float.abs v)
  in
  let buf = Buffer.create 32 in
  let first = ref true in
  Array.iteri
    (fun i v ->
      if Float.abs v > tol then begin
        let sign = if v < 0. then "-" else "+" in
        if !first then begin
          if v < 0. then Buffer.add_string buf "-";
          first := false
        end
        else Buffer.add_string buf (Printf.sprintf " %s " sign);
        let c = coeff v in
        if c <> "1" then Buffer.add_string buf c;
        Buffer.add_string buf var_names.(i)
      end)
    scaled;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* the analysis                                                        *)

(* lint-side view of the tape analyzer: map its severities and
   subjects into this report's vocabulary (instruction- and tape-level
   subjects attach to the model; output/input slots are coordinates) *)

let of_tc_severity = function
  | Tape_check.Error -> Error
  | Tape_check.Warning -> Warning
  | Tape_check.Info -> Info

let of_tc_subject = function
  | Tape_check.Tape | Tape_check.Instr _ -> Model
  | Tape_check.Output i | Tape_check.Var_slot i -> Coord i
  | Tape_check.Theta_slot j -> Param j

let div_unsound (rep : Tape_check.report) =
  List.exists
    (fun (f : Tape_check.finding) -> f.code = "T001" || f.code = "T002")
    rep.Tape_check.findings

let first_div_message (rep : Tape_check.report) =
  match
    List.find_opt
      (fun (f : Tape_check.finding) -> f.code = "T001" || f.code = "T002")
      rep.Tape_check.findings
  with
  | Some f -> f.Tape_check.message
  | None -> "no division defect"

let analyze_transitions ?domain ?(tape = false) ~name ~var_names ~theta_names
    ~theta (transitions : Model.transition list) =
  let dim = Array.length var_names in
  let theta_dim = Array.length theta_names in
  let domain =
    match domain with
    | Some b ->
        if Optim.Box.dim b <> dim then
          invalid_arg "Lint: domain dimension mismatch";
        b
    | None -> Optim.Box.make (Vec.zeros dim) (Vec.create dim 1.)
  in
  let x_ivs =
    Array.init dim (fun i ->
        Interval.make domain.Optim.Box.lo.(i) domain.Optim.Box.hi.(i))
  in
  let th_ivs =
    Array.init theta_dim (fun j ->
        Interval.make theta.Optim.Box.lo.(j) theta.Optim.Box.hi.(j))
  in
  let findings = ref [] in
  let report code severity subject fmt =
    Printf.ksprintf
      (fun message -> findings := { code; severity; subject; message } :: !findings)
      fmt
  in

  (* -------- well-formedness: L003/L004/L005 ----------------------- *)
  let valid =
    List.filter
      (fun (tr : Model.transition) ->
        let ok = ref true in
        if Vec.dim tr.change <> dim then begin
          report "L005" Error (Transition tr.name)
            "transition %s: change vector has dimension %d, expected %d"
            tr.name (Vec.dim tr.change) dim;
          ok := false
        end;
        List.iter
          (fun i ->
            if i >= dim then begin
              report "L003" Error (Transition tr.name)
                "transition %s: rate references x%d but the model has %d \
                 variable%s"
                tr.name i dim
                (if dim = 1 then "" else "s");
              ok := false
            end)
          (Expr.vars tr.rate);
        List.iter
          (fun j ->
            if j >= theta_dim then begin
              report "L004" Error (Transition tr.name)
                "transition %s: rate references th%d but Θ has %d \
                 coordinate%s"
                tr.name j theta_dim
                (if theta_dim = 1 then "" else "s");
              ok := false
            end)
          (Expr.thetas tr.rate);
        !ok)
      transitions
  in

  (* total interval evaluation through the tape analyzer: never raises
     — a zero-containing divisor comes back as an unbounded enclosure
     plus a T001/T002 finding naming the offending instruction.  One
     compiled tape per distinct expression, reused across face checks. *)
  let tape_cache : (Expr.t, Tape.t) Hashtbl.t = Hashtbl.create 16 in
  let tape_of e =
    match Hashtbl.find_opt tape_cache e with
    | Some t -> t
    | None ->
        let t = Tape.compile [| e |] in
        Hashtbl.add tape_cache e t;
        t
  in
  let enclose e ~x =
    let rep = Tape_check.analyze (tape_of e) ~x ~th:th_ivs in
    (rep.Tape_check.outputs.(0).Tape_check.range, rep)
  in

  (* -------- rate soundness: L001/L002/L006/L403 ------------------- *)
  let rate_sound = ref true in
  List.iter
    (fun (tr : Model.transition) ->
      if Expr.simplify tr.rate = Expr.Const 0. then
        report "L403" Warning (Transition tr.name)
          "transition %s: rate simplifies to 0 — the transition never fires"
          tr.name
      else begin
        let enc, rep = enclose tr.rate ~x:x_ivs in
        if div_unsound rep then begin
          rate_sound := false;
          report "L006" Warning (Transition tr.name)
            "transition %s: division-by-zero freedom not certified — %s"
            tr.name (first_div_message rep)
        end
        else if Interval.hi enc < -.tol then begin
          rate_sound := false;
          report "L001" Error (Transition tr.name)
            "transition %s: rate is negative everywhere on the domain \
             (enclosure [%g, %g]) — propensities are ill-defined"
            tr.name (Interval.lo enc) (Interval.hi enc)
        end
        else if Interval.lo enc < -.tol then begin
          rate_sound := false;
          report "L002" Warning (Transition tr.name)
            "transition %s: rate not certified non-negative (enclosure \
             [%g, %g]); Theorems 1-4 assume β ≥ 0 — guard the rate with \
             max(0, ·) or shrink the domain"
            tr.name (Interval.lo enc) (Interval.hi enc)
        end
      end)
    valid;

  (* -------- dead code: L401/L402 ---------------------------------- *)
  let var_read = Array.make dim false and var_moved = Array.make dim false in
  let param_read = Array.make theta_dim false in
  List.iter
    (fun (tr : Model.transition) ->
      List.iter (fun i -> var_read.(i) <- true) (Expr.vars tr.rate);
      List.iter (fun j -> param_read.(j) <- true) (Expr.thetas tr.rate);
      Array.iteri (fun i c -> if c <> 0. then var_moved.(i) <- true) tr.change)
    valid;
  Array.iteri
    (fun i name_i ->
      if not (var_read.(i) || var_moved.(i)) then
        report "L401" Warning (Coord i)
          "variable %s is never read by a rate nor moved by a change vector"
          name_i)
    var_names;
  Array.iteri
    (fun j name_j ->
      if not param_read.(j) then
        report "L402" Warning (Param j)
          "parameter %s is never referenced by any rate — its imprecision \
           interval is dead"
          name_j)
    theta_names;

  (* -------- positive-orthant invariance: L404 --------------------- *)
  let orthant_ok = ref true in
  List.iter
    (fun (tr : Model.transition) ->
      Array.iteri
        (fun i c ->
          if
            c < 0.
            && domain.Optim.Box.lo.(i) <= 0.
            && domain.Optim.Box.hi.(i) >= 0.
          then begin
            let face =
              Array.mapi
                (fun k iv -> if k = i then Interval.of_float 0. else iv)
                x_ivs
            in
            let enc, rep = enclose tr.rate ~x:face in
            if div_unsound rep then begin
              orthant_ok := false;
              report "L404" Warning (Transition tr.name)
                "transition %s decreases %s and its rate cannot be certified \
                 zero on the face %s = 0 — %s"
                tr.name var_names.(i) var_names.(i) (first_div_message rep)
            end
            else if Interval.hi enc > tol then begin
              orthant_ok := false;
              report "L404" Warning (Transition tr.name)
                "transition %s decreases %s but can fire at rate up to %g \
                 on the face %s = 0 — the state can leave the positive \
                 orthant"
                tr.name var_names.(i) (Interval.hi enc) var_names.(i)
            end
          end)
        tr.change)
    valid;

  (* -------- drift and structure classification -------------------- *)
  let drift =
    Array.init dim (fun i ->
        List.fold_left
          (fun acc (tr : Model.transition) ->
            if tr.change.(i) = 0. then acc
            else Expr.(acc +: (const tr.change.(i) *: tr.rate)))
          (Expr.const 0.) valid
        |> Expr.simplify)
  in
  let classes =
    Array.map
      (fun fi ->
        {
          affine_theta = Expr.is_affine_in_theta fi;
          multilinear = Expr.is_multilinear fi;
          smooth = not (has_kink fi);
        })
      drift
  in
  let all_affine = Array.for_all (fun c -> c.affine_theta) classes in
  let all_multilinear = Array.for_all (fun c -> c.multilinear) classes in

  (* -------- vertex optimality: T203/T204 -------------------------- *)
  (* The bang-bang shortcut (Sec. IV-C) maximises the Hamiltonian
     p·f(x, θ) over the θ-box.  A vertex arg max is guaranteed when
     every drift coordinate is coordinatewise affine (multilinear) in
     θ AND no Min/Max argument or Ite guard depends on θ (a min of
     θ-affine terms is concave — its maximum can sit in the interior).
     Syntactic θ-affinity implies this; otherwise we prove it: every
     kink θ-free and every ∂²f_i/∂θ_j² certified identically zero
     (symbolically, or an exact [0,0] interval enclosure). *)
  let rec kinks_theta_free e =
    match (e : Expr.t) with
    | Const _ | Var _ | Theta _ -> true
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
        kinks_theta_free a && kinks_theta_free b
    | Neg a | Pow (a, _) -> kinks_theta_free a
    | Min (a, b) | Max (a, b) -> Expr.thetas a = [] && Expr.thetas b = []
    | Ite (g, a, b) ->
        Expr.thetas g = [] && kinks_theta_free a && kinks_theta_free b
  in
  let second_theta_deriv_zero fi j =
    match Expr.simplify (Expr.diff_theta (Expr.diff_theta fi j) j) with
    | Expr.Const 0. -> true
    | d2 ->
        let enc, rep = enclose d2 ~x:x_ivs in
        (not (div_unsound rep))
        && Interval.lo enc = 0.
        && Interval.hi enc = 0.
  in
  let vertex_certified =
    dim > 0
    && (all_affine
       || (Array.for_all kinks_theta_free drift
          && Array.for_all
               (fun fi ->
                 List.for_all (second_theta_deriv_zero fi)
                   (List.init theta_dim Fun.id))
               drift))
  in

  if dim > 0 then begin
    if all_affine then
      report "L101" Info Model
        "drift is affine in θ: the Hamiltonian arg max is attained at a \
         vertex of Θ — Pontryagin can use exact vertex enumeration"
    else begin
      let bad =
        String.concat ", "
          (List.filteri (fun i _ -> not classes.(i).affine_theta)
             (Array.to_list var_names))
      in
      if vertex_certified then
        report "T203" Info Model
          "drift certified coordinatewise affine (multilinear) in θ although \
           not syntactically affine (coordinate%s %s): the Hamiltonian arg \
           max is provably attained at a vertex of Θ — vertex enumeration \
           stays exact"
          (if String.contains bad ',' then "s" else "")
          bad
      else begin
        report "L102" Warning Model
          "drift not affine in θ (coordinate%s %s): vertex enumeration may \
           miss the Hamiltonian arg max — a box search is used instead"
          (if String.contains bad ',' then "s" else "")
          bad;
        report "T204" Warning Model
          "vertex optimality of the Hamiltonian arg max not certified (a \
           second θ-derivative or a θ-dependent kink survives): Pontryagin \
           falls back to a box search"
      end
    end;
    if all_multilinear then
      report "L103" Info Model
        "drift is multilinear: hull face extrema are attained at box \
         vertices"
  end;
  let kinked =
    List.filteri (fun i _ -> not classes.(i).smooth) (Array.to_list var_names)
  in
  (* Info, not Warning: kinks are fully supported (Clarke subgradients,
     hulled Ite branches) — this states structure, it does not withhold
     a certificate *)
  if kinked <> [] then
    report "L302" Info Model
      "drift coordinate%s %s %s only piecewise-smooth (Min/Max/Ite): \
       costates use Clarke subgradients at kinks; the drift remains \
       Lipschitz but not C¹"
      (if List.length kinked > 1 then "s" else "")
      (String.concat ", " kinked)
      (if List.length kinked > 1 then "are" else "is");

  (* -------- conservation laws: L201/L202 -------------------------- *)
  let conservation =
    if valid = [] || dim = 0 then []
    else begin
      let c = Mat.of_arrays (Array.of_list (List.map (fun (tr : Model.transition) -> Vec.copy tr.change) valid)) in
      Mat.null_space ~tol:1e-9 c
      |> Array.to_list
      |> List.map (fun w -> { weights = w; pretty = pretty_weights var_names w })
    end
  in
  List.iter
    (fun cons ->
      report "L201" Info Model "conservation law: %s is constant along every trajectory"
        cons.pretty)
    conservation;
  let mass_conserved =
    valid <> []
    && List.for_all
         (fun (tr : Model.transition) -> Float.abs (Vec.sum tr.change) <= tol)
         valid
  in
  let simplex_preserving = mass_conserved && !rate_sound && !orthant_ok in
  if simplex_preserving then
    report "L202" Info Model
      "the drift preserves the unit simplex: total mass is conserved, rates \
       are certified non-negative and no transition can push a coordinate \
       below zero";

  (* -------- Lipschitz certificate: L301/L302/L303 ----------------- *)
  let lipschitz =
    if dim = 0 then None
    else begin
      let certified = ref true in
      let bound = ref 0. in
      Array.iteri
        (fun i fi ->
          if !certified then begin
            let row = ref 0. in
            for j = 0 to dim - 1 do
              if !certified then begin
                let dij = Expr.simplify (Expr.diff_var fi j) in
                let enc, rep = enclose dij ~x:x_ivs in
                if div_unsound rep then begin
                  certified := false;
                  report "L303" Warning (Coord i)
                    "Lipschitz bound not certifiable: ∂f_%s/∂%s divides by \
                     an interval containing 0 (%s) — Theorems 1-4 need a \
                     Lipschitz drift, certify it on a smaller domain"
                    var_names.(i) var_names.(j) (first_div_message rep)
                end
                else begin
                  let mag =
                    Float.max
                      (Float.abs (Interval.lo enc))
                      (Float.abs (Interval.hi enc))
                  in
                  if Float.is_finite mag then row := !row +. mag
                  else begin
                    certified := false;
                    report "L303" Warning (Coord i)
                      "Lipschitz bound not certifiable: ∂f_%s/∂%s is \
                       unbounded over the domain × Θ"
                      var_names.(i) var_names.(j)
                  end
                end
              end
            done;
            if !certified then bound := Float.max !bound !row
          end)
        drift;
      if !certified then begin
        report "L301" Info Model
          "certified Lipschitz bound: ‖∂f/∂x‖∞ ≤ %g over the domain × Θ \
           (feeds the Certified error bounds)"
          !bound;
        Some !bound
      end
      else None
    end
  in

  (* -------- tape tier: T-findings merged into this report ---------- *)
  let tape_report =
    if (not tape) || dim = 0 then None
    else begin
      let drift_tape = Tape.compile drift in
      let rep =
        Tape_check.analyze ~var_names ~theta_names drift_tape ~x:x_ivs
          ~th:th_ivs
      in
      List.iter
        (fun (f : Tape_check.finding) ->
          report f.code (of_tc_severity f.severity) (of_tc_subject f.subject)
            "%s" f.message)
        rep.Tape_check.findings;
      (* certified θ-monotonicity: run the exact ∂f/∂θ tapes through
         the same interpreter and report the decided signs, one
         finding per parameter (T202) *)
      if theta_dim > 0 then begin
        let jac_exprs =
          Array.init (dim * theta_dim) (fun k ->
              Expr.simplify (Expr.diff_theta drift.(k / theta_dim) (k mod theta_dim)))
        in
        let jrep =
          Tape_check.analyze (Tape.compile jac_exprs) ~x:x_ivs ~th:th_ivs
        in
        for j = 0 to theta_dim - 1 do
          let decided = ref [] in
          for i = dim - 1 downto 0 do
            let o = jrep.Tape_check.outputs.((i * theta_dim) + j) in
            match o.Tape_check.sign with
            | Tape_check.Mixed -> ()
            | s ->
                decided :=
                  Printf.sprintf "∂f_%s/∂%s %s" var_names.(i)
                    theta_names.(j) (Tape_check.sign_to_string s)
                  :: !decided
          done;
          if !decided <> [] then
            report "T202" Info (Param j)
              "certified monotonicity in %s: %s over the domain × Θ"
              theta_names.(j)
              (String.concat ", " !decided)
        done
      end;
      (* ---- certificate tier: C-codes (vacuous error ledgers) ----
         Warning severity throughout: a vacuous certificate is honest —
         the ledger says "no information" — it just helps nobody, and
         it must not flip {!ok} for models that are otherwise sound. *)
      let finite_iv iv =
        Float.is_finite (Interval.lo iv) && Float.is_finite (Interval.hi iv)
      in
      let value_vacuous = ref false and budget_vacuous = ref false in
      Array.iteri
        (fun i o ->
          if not (finite_iv o.Tape_check.range) then begin
            value_vacuous := true;
            report "C001" Warning (Coord i)
              "drift enclosure for %s is unbounded over the domain × Θ \
               ([%g, %g]): every certificate value built on it \
               (Certified.drift_cert, Hull.final_certs) is vacuous"
              var_names.(i)
              (Interval.lo o.Tape_check.range)
              (Interval.hi o.Tape_check.range)
          end)
        rep.Tape_check.outputs;
      if not (Float.is_finite rep.Tape_check.max_abs_err) then begin
        budget_vacuous := true;
        report "C002" Warning Model
          "the compiled drift's rounding bound is infinite: the rounding \
           line of every derived certificate (Certified.float_error_bound) \
           is vacuous"
      end;
      List.iter
        (fun (tr : Model.transition) ->
          let enc, _ = enclose tr.rate ~x:x_ivs in
          if not (finite_iv enc) then begin
            value_vacuous := true;
            report "C003" Warning (Transition tr.name)
              "transition %s: rate enclosure over the domain × Θ is \
               unbounded ([%g, %g]) — imprecise-sweep error ledgers built \
               from this rate budget at an infinite exit rate"
              tr.name (Interval.lo enc) (Interval.hi enc)
          end)
        valid;
      if !value_vacuous || !budget_vacuous then
        report "C101" Warning Model
          "composed certificate is vacuous (%s): Cert.is_vacuous holds for \
           the model-level ledger, so Certified.usable_bounds is false and \
           downstream gates learn nothing"
          (String.concat " and "
             ((if !value_vacuous then [ "unbounded value enclosure" ] else [])
             @ (if !budget_vacuous then [ "infinite rounding line" ] else [])));
      Some rep
    end
  in

  let recommended_opt = if vertex_certified then `Vertices else `Box 5 in
  let findings =
    List.sort
      (fun a b ->
        match compare a.code b.code with 0 -> compare a.message b.message | c -> c)
      !findings
  in
  {
    model = name;
    var_names;
    theta_names;
    findings;
    classes;
    conservation;
    simplex_preserving;
    lipschitz;
    vertex_certified;
    recommended_opt;
    tape = tape_report;
  }

let analyze ?domain ?tape m =
  let domain = match domain with Some b -> b | None -> Model.clip m in
  analyze_transitions ~domain ?tape ~name:(Model.name m)
    ~var_names:(Model.var_names m) ~theta_names:(Model.theta_names m)
    ~theta:(Model.theta m) (Model.transitions m)

(* ------------------------------------------------------------------ *)
(* report access and printing                                          *)

let errors r = List.filter (fun f -> f.severity = Error) r.findings

let warnings r = List.filter (fun f -> f.severity = Warning) r.findings

let ok r = errors r = []

let findings_with r code = List.filter (fun f -> f.code = code) r.findings

let pp_finding ppf f =
  Format.fprintf ppf "[%s] %-7s %s" f.code (severity_to_string f.severity)
    f.message

(* ------------------------------------------------------------------ *)
(* machine-readable findings (NDJSON lines for CI)                     *)

module Json = Umf_obs.Obs.Json

let subject_to_json r = function
  | Model -> Json.Obj [ ("kind", Json.Str "model") ]
  | Transition t ->
      Json.Obj [ ("kind", Json.Str "transition"); ("name", Json.Str t) ]
  | Coord i ->
      Json.Obj
        (("kind", Json.Str "coord")
        :: ("index", Json.Num (float_of_int i))
        ::
        (if i < Array.length r.var_names then
           [ ("name", Json.Str r.var_names.(i)) ]
         else []))
  | Param j ->
      Json.Obj
        (("kind", Json.Str "param")
        :: ("index", Json.Num (float_of_int j))
        ::
        (if j < Array.length r.theta_names then
           [ ("name", Json.Str r.theta_names.(j)) ]
         else []))

let finding_to_json r f =
  Json.Obj
    [
      ("model", Json.Str r.model);
      ("code", Json.Str f.code);
      ("severity", Json.Str (severity_to_string f.severity));
      ("subject", subject_to_json r f.subject);
      ("message", Json.Str f.message);
      ("description", Json.Str (describe f.code));
    ]

let summary_to_json r =
  let n_err = List.length (errors r) and n_warn = List.length (warnings r) in
  let base =
    [
      ("model", Json.Str r.model);
      ("summary", Json.Bool true);
      ("errors", Json.Num (float_of_int n_err));
      ("warnings", Json.Num (float_of_int n_warn));
      ( "infos",
        Json.Num (float_of_int (List.length r.findings - n_err - n_warn)) );
      ("vertex_certified", Json.Bool r.vertex_certified);
      ( "recommended_opt",
        Json.Str
          (match r.recommended_opt with
          | `Vertices -> "vertices"
          | `Box k -> Printf.sprintf "box:%d" k) );
      ( "lipschitz",
        match r.lipschitz with Some l -> Json.Num l | None -> Json.Null );
    ]
  in
  let tape =
    match r.tape with
    | None -> []
    | Some t ->
        [
          ("float_safe", Json.Bool t.Tape_check.float_safe);
          ("max_abs_err", Json.Num t.Tape_check.max_abs_err);
          ("tape_instrs", Json.Num (float_of_int t.Tape_check.n_instrs));
        ]
  in
  Json.Obj (base @ tape)

let pp_report ppf r =
  let n_err = List.length (errors r)
  and n_warn = List.length (warnings r) in
  let n_info = List.length r.findings - n_err - n_warn in
  Format.fprintf ppf "lint report for %s (%d state variable%s, %d parameter%s)@."
    r.model (Array.length r.var_names)
    (if Array.length r.var_names = 1 then "" else "s")
    (Array.length r.theta_names)
    (if Array.length r.theta_names = 1 then "" else "s");
  Format.fprintf ppf "  %d error%s, %d warning%s, %d info%s@." n_err
    (if n_err = 1 then "" else "s")
    n_warn
    (if n_warn = 1 then "" else "s")
    n_info
    (if n_info = 1 then "" else "s");
  List.iter (fun f -> Format.fprintf ppf "  %a@." pp_finding f) r.findings;
  Format.fprintf ppf "  classification (per drift coordinate):@.";
  Array.iteri
    (fun i c ->
      Format.fprintf ppf "    %s: %s in θ, %s, %s@." r.var_names.(i)
        (if c.affine_theta then "affine" else "non-affine")
        (if c.multilinear then "multilinear" else "not multilinear")
        (if c.smooth then "smooth" else "piecewise-smooth"))
    r.classes;
  (match r.conservation with
  | [] -> Format.fprintf ppf "  conservation laws: none@."
  | laws ->
      Format.fprintf ppf "  conservation laws:@.";
      List.iter (fun c -> Format.fprintf ppf "    %s constant@." c.pretty) laws);
  (match r.lipschitz with
  | Some l -> Format.fprintf ppf "  Lipschitz: ‖∂f/∂x‖∞ ≤ %g on domain × Θ@." l
  | None -> Format.fprintf ppf "  Lipschitz: not certifiable on this domain@.");
  Format.fprintf ppf "  recommended Hamiltonian optimiser: %s@."
    (match r.recommended_opt with
    | `Vertices ->
        "vertex enumeration (certified: drift coordinatewise affine in θ)"
    | `Box k -> Printf.sprintf "box search (grid %d + refinement)" k);
  match r.tape with
  | None -> ()
  | Some t ->
      Format.fprintf ppf "  tape tier: %d instructions, float-%s, %s@."
        t.Tape_check.n_instrs
        (if t.Tape_check.float_safe then "safe" else "UNSAFE")
        (if Float.is_finite t.Tape_check.max_abs_err then
           Printf.sprintf "rounding error <= %.3g" t.Tape_check.max_abs_err
         else "rounding error not certifiable");
      Array.iteri
        (fun i o ->
          Format.fprintf ppf "    %s: range %a, |err| <= %.3g, sign %s@."
            (if i < Array.length r.var_names then r.var_names.(i)
             else Printf.sprintf "out%d" i)
            Interval.pp o.Tape_check.range o.Tape_check.abs_err
            (Tape_check.sign_to_string o.Tape_check.sign))
        t.Tape_check.outputs
