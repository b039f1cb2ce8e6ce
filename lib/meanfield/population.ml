open Umf_numerics

type transition = {
  name : string;
  change : Vec.t;
  rate : Vec.t -> Vec.t -> float;
}

type t = {
  name : string;
  dim : int;
  var_names : string array;
  theta_names : string array;
  theta : Optim.Box.t;
  transitions : transition array;
  rates_plan : Tape.Plan.t option;
}

let make ~name ~var_names ~theta_names ~theta ?rates_plan transitions =
  let dim = Array.length var_names in
  if dim = 0 then invalid_arg "Population.make: no variables";
  if Optim.Box.dim theta <> Array.length theta_names then
    invalid_arg "Population.make: theta box/name dimension mismatch";
  List.iter
    (fun tr ->
      if Vec.dim tr.change <> dim then
        invalid_arg
          (Printf.sprintf "Population.make: transition %s has change of wrong dimension"
             tr.name))
    transitions;
  let transitions = Array.of_list transitions in
  (match rates_plan with
  | Some p when Tape.n_outputs (Tape.Plan.tape p) <> Array.length transitions
    ->
      invalid_arg "Population.make: rates_plan output count mismatch"
  | _ -> ());
  { name; dim; var_names; theta_names; theta; transitions; rates_plan }

let dim m = m.dim

let theta_dim m = Optim.Box.dim m.theta

let rates_plan m = m.rates_plan

let drift m x theta =
  let f = Vec.zeros m.dim in
  (match m.rates_plan with
  | Some p ->
      (* all rates in one tape dispatch; the combined tape's per-output
         values are bitwise those of the per-rate tapes (CSE shares
         only identical subcomputations, fusion preserves association) *)
      let betas = Tape.Plan.run_alloc p ~x ~th:theta in
      Array.iteri
        (fun k tr -> Vec.axpy_in_place betas.(k) tr.change f)
        m.transitions
  | None ->
      Array.iter
        (fun tr -> Vec.axpy_in_place (tr.rate x theta) tr.change f)
        m.transitions);
  f

let drift_rhs m ~theta _t x = drift m x theta

let controlled_rhs m ~control t x = drift m x (control t x)

let propensities m ~n x theta =
  if n <= 0 then invalid_arg "Population.propensities: need n > 0";
  match m.rates_plan with
  | Some p ->
      let betas = Tape.Plan.run_alloc p ~x ~th:theta in
      Array.iteri
        (fun k beta ->
          if beta < 0. || Float.is_nan beta then
            invalid_arg
              (Printf.sprintf "Population: transition %s has invalid rate"
                 m.transitions.(k).name);
          betas.(k) <- float_of_int n *. beta)
        betas;
      betas
  | None ->
      Array.map
        (fun tr ->
          let beta = tr.rate x theta in
          if beta < 0. || Float.is_nan beta then
            invalid_arg
              (Printf.sprintf "Population: transition %s has invalid rate"
                 tr.name);
          float_of_int n *. beta)
        m.transitions
