open Umf_numerics
module Model = Umf_meanfield.Model
module Lint = Umf_lint.Lint

exception Rejected of Lint.report

(* gate: refuse models the static analyzer rejects — both tiers, so a
   certain division-by-zero in the compiled tape (T002) blocks the
   solve exactly like a certifiably negative rate (L001) — and reuse
   the proven sign facts to pick the Hamiltonian arg-max strategy *)
let gate ?domain ?(lint = true) m =
  if not lint then None
  else begin
    let report = Lint.analyze ?domain ~tape:true m in
    if not (Lint.ok report) then raise (Rejected report);
    Some report
  end

let static_report ?domain m = Lint.analyze ?domain ~tape:true m

(* the per-coordinate drift certificate: interval enclosure over
   domain × Θ with the tape tier's rounding bound on the ledger — the
   object the C-code lint tier checks for vacuity *)
let drift_cert ?domain m =
  let box = match domain with Some b -> b | None -> Model.clip m in
  let ivs (b : Optim.Box.t) =
    Array.mapi (fun i lo -> Interval.make lo b.Optim.Box.hi.(i)) b.Optim.Box.lo
  in
  let enclosure = Model.drift_interval m ~x:(ivs box) ~th:(ivs (Model.theta m)) in
  let rounding =
    match (static_report ?domain m).Lint.tape with
    | Some t -> t.Tape_check.max_abs_err
    | None -> infinity
  in
  Array.map (fun iv -> Cert.widen ~rounding (Cert.of_interval iv)) enclosure

let float_error_bound ?domain m =
  Array.fold_left
    (fun acc (c : Cert.t) -> Float.max acc c.Cert.budget.Cert.rounding)
    0. (drift_cert ?domain m)

let usable_bounds ?domain m =
  Array.for_all (fun c -> not (Cert.is_vacuous c)) (drift_cert ?domain m)

let recommended_hamiltonian_opt ?domain m =
  (static_report ?domain m).Lint.recommended_opt

let opt_of ?domain report m =
  match report with
  | Some r -> r.Lint.recommended_opt
  | None -> recommended_hamiltonian_opt ?domain m

let pontryagin ?steps ?max_iter ?tol ?relax ?domain ?lint ?obs m ~x0 ~horizon
    ~sense obj =
  let report = gate ?domain ?lint m in
  let opt = opt_of ?domain report m in
  Pontryagin.solve ?steps ?max_iter ?tol ?relax ~opt ~check:true ?obs
    (Di.of_model m) ~x0 ~horizon ~sense obj

let bound_series ?steps ?max_iter ?tol ?relax ?domain ?lint ?obs m ~x0 ~coord
    ~times =
  let report = gate ?domain ?lint m in
  let opt = opt_of ?domain report m in
  Pontryagin.bound_series ?steps ?max_iter ?tol ?relax ~opt ~check:true ?obs
    (Di.of_model m) ~x0 ~coord ~times

let hull_bounds ?clip ?lint ?obs m ~x0 ~horizon ~dt =
  ignore (gate ?domain:clip ?lint m : Lint.report option);
  Hull.bounds ~check:true ?clip ?obs (Di.of_model m) ~x0 ~horizon ~dt
