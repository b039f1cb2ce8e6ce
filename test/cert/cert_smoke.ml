(* End-to-end smoke of the error ledger, wired into `dune runtest`
   through the @cert-smoke alias.

   A traced SIR analysis (transient bounds + first passage) must
   produce certificates whose every budget line is finite, whose
   gauges reach the trace stream, and whose intervals bracket an
   independent reference: the θ-box-midpoint chain solved by
   uniformisation is one admissible adapted process, so its hitting
   probabilities and truncated MFPT must fall inside the certified
   imprecise bounds. *)

open Umf

let check name ok =
  if not ok then begin
    Printf.eprintf "cert-smoke FAILED: %s\n%!" name;
    exit 1
  end

let finite_ledger name (c : Cert.t) =
  check (name ^ ": certificate not vacuous") (not (Cert.is_vacuous c));
  List.iter
    (fun (line, v) ->
      check
        (Printf.sprintf "%s: budget line %s finite" name line)
        (Float.is_finite v))
    (Cert.lines c)

let () =
  let model = Registry.find_exn "sir" in
  let trace_file = "cert_smoke_trace.ndjson" in
  let oc = open_out trace_file in
  let agg = Obs.Agg.create () in
  let tr = Obs.Trace.to_channel oc in
  let obs = Obs.make ~agg ~trace:tr () in
  let horizon = 2. in
  let n = 8 in
  let epsilon = 0.05 in
  let times = Vec.linspace 0. horizon 6 in
  let threshold = 0.4 in
  let target (x : Vec.t) = x.(1) >= threshold in

  (* the traced analyses under test *)
  let spec = Analysis.spec ~horizon ~obs model in
  let b =
    Analysis.transient_bounds ~times spec ~x0:(Model.x0 model) ~coord:1
  in
  finite_ledger "transient_bounds" b.Analysis.cert;
  let fp = Analysis.first_passage ~times ~epsilon spec ~n ~target in
  finite_ledger "first_passage" fp.Analysis.cert;
  Obs.Trace.flush tr;
  close_out oc;

  (* ordering invariants *)
  let nt = Array.length times in
  for j = 0 to nt - 1 do
    check "hit bounds ordered"
      (0. <= fp.hit_lower.(j)
      && fp.hit_lower.(j) <= fp.hit_upper.(j)
      && fp.hit_upper.(j) <= 1.)
  done;
  check "mfpt bracket ordered"
    (0. <= fp.mfpt_lower
    && fp.mfpt_lower <= fp.mfpt_upper
    && fp.mfpt_upper <= horizon);
  check "mfpt bracket = certificate value"
    (Interval.lo fp.cert.Cert.value = fp.mfpt_lower
    && Interval.hi fp.cert.Cert.value = fp.mfpt_upper);

  (* reference run: the θ-midpoint chain is one admissible adapted
     process — rebuild the same absorbed chain and solve it precisely *)
  let sp =
    Ctmc_of_population.state_space ~theta:(Model.theta model)
      ~clip:(Model.clip model) ~max_states:20_000 ~truncation:`Adaptive model
      ~n ~x0:(Model.x0 model)
  in
  check "SIR lattice is exact at this n"
    (not (Ctmc_of_population.truncated sp));
  let states = Ctmc_of_population.n_states sp in
  check "same lattice as the analysis" (states = fp.Analysis.states);
  let ind =
    Ctmc_of_population.reward sp (fun x -> if target x then 1. else 0.)
  in
  (* the lattice's own generator at the θ midpoint, its target rows
     emptied so the target states absorb *)
  let g =
    Ctmc_of_population.generator sp model
      ~theta:(Optim.Box.midpoint (Model.theta model))
  in
  let g_mid =
    Generator.of_rows
      (Array.init states (fun s ->
           if ind.(s) = 1. then [||] else Generator.outgoing g s))
  in
  let p0 = Ctmc_of_population.point_mass sp in
  let hit_mid t =
    if t <= 0. then 0.
    else Vec.dot (fst (Ctmc.Transient.uniformization g_mid ~p0 ~t)) ind
  in
  Array.iteri
    (fun j t ->
      let p = hit_mid t in
      check
        (Printf.sprintf "midpoint hitting prob inside bounds at t=%g" t)
        (fp.hit_lower.(j) -. 1e-9 <= p && p <= fp.hit_upper.(j) +. 1e-9))
    times;

  (* the midpoint truncated MFPT E[min(τ, T)] = T − ∫₀ᵀ P(τ <= s) ds,
     bracketed by left/right Riemann sums on a fine grid (P is
     nondecreasing); the certified interval must intersect it *)
  let k = 40 in
  let left = ref 0. and right = ref 0. in
  for i = 0 to k - 1 do
    let dt = horizon /. float_of_int k in
    left := !left +. (dt *. hit_mid (float_of_int i *. dt));
    right := !right +. (dt *. hit_mid (float_of_int (i + 1) *. dt))
  done;
  let ref_lo = horizon -. !right and ref_hi = horizon -. !left in
  check "certified MFPT bracket overlaps midpoint reference"
    (fp.mfpt_lower <= ref_hi +. 1e-9 && ref_lo <= fp.mfpt_upper +. 1e-9);

  (* the ledger gauges must reach the NDJSON trace stream *)
  let ic = open_in trace_file in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  check "trace stream nonempty" (len > 0);
  check "trace carries the first_passage ledger gauges"
    (let needle = "first_passage.cert" in
     let nl = String.length needle and bl = String.length body in
     let rec scan i =
       i + nl <= bl && (String.sub body i nl = needle || scan (i + 1))
     in
     scan 0);
  print_endline "cert-smoke OK"
