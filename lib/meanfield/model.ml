open Umf_numerics

type transition = { name : string; change : Vec.t; rate : Expr.t }

type t = {
  name : string;
  var_names : string array;
  theta_names : string array;
  theta : Optim.Box.t;
  transitions : transition list;
  x0 : Vec.t;
  clip : Optim.Box.t;
  policies : (string * Policy.t) list;
  rates_plan : Tape.Plan.t;
  drift_exprs : Expr.t array;
  drift_plan : Tape.Plan.t;
  jac_plan : Tape.Plan.t;
  affine : bool;
  multilinear : bool;
}

let make ~name ~var_names ~theta_names ~theta ~x0 ?clip ?(policies = [])
    transitions =
  let dim = Array.length var_names in
  let theta_dim = Array.length theta_names in
  List.iter
    (fun (tr : transition) ->
      List.iter
        (fun i ->
          if i >= dim then
            invalid_arg
              (Printf.sprintf "Model.make: %s references x%d (dim %d)" tr.name
                 i dim))
        (Expr.vars tr.rate);
      List.iter
        (fun j ->
          if j >= theta_dim then
            invalid_arg
              (Printf.sprintf "Model.make: %s references th%d (theta dim %d)"
                 tr.name j theta_dim))
        (Expr.thetas tr.rate))
    transitions;
  if Vec.dim x0 <> dim then
    invalid_arg
      (Printf.sprintf "Model.make: x0 has dimension %d, expected %d"
         (Vec.dim x0) dim);
  let clip =
    match clip with
    | Some b ->
        if Optim.Box.dim b <> dim then
          invalid_arg "Model.make: clip box dimension mismatch";
        b
    | None -> Optim.Box.make (Vec.zeros dim) (Vec.create dim 1.)
  in
  if dim = 0 then invalid_arg "Model.make: no variables";
  if Optim.Box.dim theta <> theta_dim then
    invalid_arg "Model.make: theta box/name dimension mismatch";
  List.iter
    (fun (tr : transition) ->
      if Vec.dim tr.change <> dim then
        invalid_arg
          (Printf.sprintf
             "Model.make: transition %s has change of wrong dimension" tr.name))
    transitions;
  (* f_i = sum over transitions of change_i * rate *)
  let drift_exprs =
    Array.init dim (fun i ->
        List.fold_left
          (fun acc (tr : transition) ->
            if tr.change.(i) = 0. then acc
            else Expr.(acc +: (const tr.change.(i) *: tr.rate)))
          (Expr.const 0.) transitions
        |> Expr.simplify)
  in
  let jac_exprs =
    Array.map
      (fun fi -> Array.init dim (fun j -> Expr.simplify (Expr.diff_var fi j)))
      drift_exprs
  in
  {
    name;
    var_names;
    theta_names;
    theta;
    transitions;
    x0;
    clip;
    policies;
    (* every transition rate in one multi-output tape, in transition
       order: the one place a rate is evaluated (propensities, lattice
       enumeration, generator assembly, the imprecise chain's vertex
       rates) *)
    rates_plan =
      Tape.Plan.make
        (Tape.compile
           (Array.of_list
              (List.map (fun (tr : transition) -> tr.rate) transitions)));
    drift_exprs;
    drift_plan = Tape.Plan.make (Tape.compile drift_exprs);
    jac_plan =
      Tape.Plan.make (Tape.compile (Array.concat (Array.to_list jac_exprs)));
    affine = Array.for_all Expr.is_affine_in_theta drift_exprs;
    multilinear = Array.for_all Expr.is_multilinear drift_exprs;
  }

let name m = m.name

let dim m = Array.length m.var_names

let theta_dim m = Array.length m.theta_names

let var_names m = m.var_names

let theta_names m = m.theta_names

let theta m = m.theta

let x0 m = m.x0

let clip m = m.clip

let policies m = m.policies

let transitions m = m.transitions

let rates_plan m = m.rates_plan

let propensities m ~n x theta =
  if n <= 0 then invalid_arg "Model.propensities: need n > 0";
  let betas = Tape.Plan.run_alloc m.rates_plan ~x ~th:theta in
  List.iteri
    (fun k (tr : transition) ->
      let beta = betas.(k) in
      if beta < 0. || Float.is_nan beta then
        invalid_arg
          (Printf.sprintf "Model.propensities: transition %s has invalid rate"
             tr.name);
      betas.(k) <- float_of_int n *. beta)
    m.transitions;
  betas

let drift_exprs m = m.drift_exprs

let drift_tape m = Tape.Plan.tape m.drift_plan

let drift_plan m = m.drift_plan

let jac_plan m = m.jac_plan

let drift_into m ~x ~th ~out = Tape.Plan.run m.drift_plan ~x ~th ~out

let drift m x th = Tape.Plan.run_alloc m.drift_plan ~x ~th

let drift_interval m ~x ~th = Tape.Plan.run_interval m.drift_plan ~x ~th

let affine_in_theta m = m.affine

let multilinear m = m.multilinear
