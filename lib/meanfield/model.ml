open Umf_numerics

type transition = { name : string; change : Vec.t; rate : Expr.t }

type t = {
  population : Population.t;
  transitions : transition list;
  x0 : Vec.t;
  clip : Optim.Box.t;
  policies : (string * Policy.t) list;
  drift_exprs : Expr.t array;
  drift_plan : Tape.Plan.t;
  jac_plan : Tape.Plan.t;
  theta_jac_plan : Tape.Plan.t;
  affine : bool;
  multilinear : bool;
}

let make ~name ~var_names ~theta_names ~theta ~x0 ?clip ?(policies = [])
    transitions =
  let dim = Array.length var_names in
  let theta_dim = Array.length theta_names in
  List.iter
    (fun tr ->
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
  (* each rate compiles to its own single-output tape so that firing
     one transition never pays for the others; the combined multi-output
     tape below serves the all-rates-at-once consumers (propensities,
     CTMC generator assembly) and batch sweeps *)
  let compiled =
    List.map
      (fun tr ->
        {
          Population.name = tr.name;
          change = tr.change;
          rate = Tape.Plan.run_scalar (Tape.Plan.make (Tape.compile [| tr.rate |]));
        })
      transitions
  in
  let rates_plan =
    Tape.Plan.make
      (Tape.compile
         (Array.of_list (List.map (fun tr -> tr.rate) transitions)))
  in
  let population =
    Population.make ~name ~var_names ~theta_names ~theta ~rates_plan compiled
  in
  (* f_i = sum over transitions of change_i * rate *)
  let drift_exprs =
    Array.init dim (fun i ->
        List.fold_left
          (fun acc tr ->
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
  let theta_jac_exprs =
    Array.map
      (fun fi ->
        Array.init theta_dim (fun j -> Expr.simplify (Expr.diff_theta fi j)))
      drift_exprs
  in
  let flatten rows = Array.concat (Array.to_list rows) in
  {
    population;
    transitions;
    x0;
    clip;
    policies;
    drift_exprs;
    drift_plan = Tape.Plan.make (Tape.compile drift_exprs);
    jac_plan = Tape.Plan.make (Tape.compile (flatten jac_exprs));
    theta_jac_plan = Tape.Plan.make (Tape.compile (flatten theta_jac_exprs));
    affine = Array.for_all Expr.is_affine_in_theta drift_exprs;
    multilinear = Array.for_all Expr.is_multilinear drift_exprs;
  }

let name m = m.population.Population.name

let dim m = Population.dim m.population

let theta_dim m = Population.theta_dim m.population

let var_names m = m.population.Population.var_names

let theta_names m = m.population.Population.theta_names

let theta m = m.population.Population.theta

let x0 m = m.x0

let clip m = m.clip

let policies m = m.policies

let transitions m = m.transitions

let population m = m.population

let drift_exprs m = m.drift_exprs

let drift_tape m = Tape.Plan.tape m.drift_plan

let drift_plan m = m.drift_plan

let jac_plan m = m.jac_plan

let drift_into m ~x ~th ~out = Tape.Plan.run m.drift_plan ~x ~th ~out

let drift m x th = Tape.Plan.run_alloc m.drift_plan ~x ~th

let eval_matrix plan ~rows ~cols x th =
  let out = Vec.zeros (rows * cols) in
  Tape.Plan.run plan ~x ~th ~out;
  Mat.init rows cols (fun i j -> out.((i * cols) + j))

let jacobian m x th =
  let d = dim m in
  eval_matrix m.jac_plan ~rows:d ~cols:d x th

let theta_jacobian m x th =
  eval_matrix m.theta_jac_plan ~rows:(dim m) ~cols:(theta_dim m) x th

let drift_interval m ~x ~th = Tape.Plan.run_interval m.drift_plan ~x ~th

let affine_in_theta m = m.affine

let multilinear m = m.multilinear
