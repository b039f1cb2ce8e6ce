open Umf_numerics
module Obs = Umf_obs.Obs

type certificate = { escaped : float; tail : float }

let no_certificate = { escaped = 0.; tail = 0. }

let check_distribution g p0 =
  if Vec.dim p0 <> Generator.n_states g then
    invalid_arg "Transient: distribution dimension mismatch";
  Array.iter
    (fun x -> if x < -1e-12 then invalid_arg "Transient: negative probability")
    p0;
  if Float.abs (Vec.sum p0 -. 1.) > 1e-9 then
    invalid_arg "Transient: distribution does not sum to 1"

let check_epsilon epsilon =
  if not (epsilon > 0. && epsilon < 1.) then
    invalid_arg "Transient: epsilon must be in (0, 1)"

(* Fox–Glynn-style right truncation point: the smallest K >= λt with
   the Chernoff tail bound P(Pois(λt) >= K) <= exp(K - λt - K ln(K/λt))
   below epsilon.  Purely analytic — no accumulated floating-point mass
   is involved — so it both sizes the sweep a priori and certifies the
   tail when rounding keeps the measured mass just short of
   1 - epsilon. *)
let poisson_cap ~lt ~epsilon =
  let log_tail k =
    let kf = float_of_int k in
    kf -. lt -. (kf *. Float.log (kf /. lt))
  in
  let target = Float.log epsilon in
  let lo = ref (Stdlib.max 1 (int_of_float (Float.ceil lt))) in
  if log_tail !lo <= target then !lo
  else begin
    (* doubling search for an upper bracket, then bisection: log_tail
       is decreasing for k >= λt *)
    let hi = ref (2 * !lo) in
    while log_tail !hi > target do
      lo := !hi;
      hi := 2 * !hi
    done;
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if log_tail mid > target then lo := mid else hi := mid
    done;
    !hi
  end

(* The uniformisation sweep.  With [leak] the operator is
   substochastic: [m] tracks the retained mass of v_k (each step's
   escaped mass is returned by the kernel through a fixed block-ordered
   reduction), and [escaped] accumulates Σ_k w_k (m_0 − m_k) — the
   probability that the chain had already left the retained space by
   the Poisson-mixed time.  Without [leak] every loss is exactly 0. *)
let uniformization ?pool ?(obs = Obs.off) ?(epsilon = 1e-12) ?leak g ~p0 ~t =
  check_distribution g p0;
  check_epsilon epsilon;
  if t < 0. then invalid_arg "Transient.uniformization: t < 0";
  if t = 0. then (Vec.copy p0, no_certificate)
  else begin
    let sp = Obs.span_begin obs "ctmc.uniformization" in
    let op = Sparse.forward ?leak g in
    let lambda = Sparse.rate op in
    let lt = lambda *. t in
    let limit = poisson_cap ~lt ~epsilon in
    let target = 1. -. epsilon in
    let result = Vec.zeros (Vec.dim p0) in
    let v = ref (Vec.copy p0) and w = ref (Vec.zeros (Vec.dim p0)) in
    let log_weight = ref (-.lt) in
    let mass = ref 0. and k = ref 0 in
    let m0 = Vec.sum p0 in
    let m = ref m0 and escaped = ref 0. in
    let running = ref true in
    while !running do
      let wk = Float.exp !log_weight in
      if !mass +. wk >= target || !k >= limit then begin
        (* final term: accumulate without a wasted extra step *)
        if wk > 0. then begin
          Vec.axpy_in_place wk !v result;
          escaped := !escaped +. (wk *. (m0 -. !m))
        end;
        mass := !mass +. wk;
        running := false
      end
      else begin
        (* fused accumulate-and-advance: one pass over the edges *)
        let lost =
          if wk > 0. then
            Sparse.step_into ?pool ~acc:(wk, result) op !v ~into:!w
          else Sparse.step_into ?pool op !v ~into:!w
        in
        if wk > 0. then escaped := !escaped +. (wk *. (m0 -. !m));
        mass := !mass +. wk;
        m := !m -. lost;
        let tmp = !v in
        v := !w;
        w := tmp;
        incr k;
        log_weight := !log_weight +. Float.log (lt /. float_of_int !k)
      end
    done;
    (* never renormalise a miss away: either the measured mass met the
       target, or the analytic cap certifies the tail is below epsilon;
       the deficit lands in the certificate's tail *)
    let terms = !k + 1 in
    let tail = Float.max 0. (m0 -. !mass) in
    if Obs.enabled obs then begin
      Obs.count obs "ctmc.terms" terms;
      Obs.add obs "ctmc.spmv_flops"
        (2.
        *. float_of_int (Sparse.nnz op + Sparse.n_states op)
        *. float_of_int (terms - 1));
      Obs.gauge obs "ctmc.truncation_mass" (1. -. !mass);
      Obs.gauge obs "ctmc.escaped_mass" !escaped;
      Obs.span_end
        ~metrics:
          [
            ("terms", float_of_int terms);
            ("mass", !mass);
            ("rows", float_of_int (Sparse.n_states op * (terms - 1)));
            ("escaped", !escaped);
            ("window", float_of_int limit);
          ]
        obs sp
    end
    else Obs.span_end obs sp;
    (result, { escaped = !escaped; tail })
  end

(* One uniformisation sweep serving every time point; [leak] as in
   [uniformization].  Per time point j the certificate is
   escaped_j = Σ_{k∈S_j} w_jk (m_0 − m_k)   (terms actually retained)
   tail_j    = max 0 (m_0 − Σ_{k∈S_j} w_jk)  (Poisson-weight deficit)
   so 1 − (retained reward mass) ≤ escaped_j + tail_j whichever terms
   the per-time mass target kept. *)
let expectation_series ?pool ?(obs = Obs.off) ?(epsilon = 1e-12) ?leak g ~p0
    ~times rewards =
  check_distribution g p0;
  check_epsilon epsilon;
  let nt = Array.length times and nr = Array.length rewards in
  if nt = 0 then invalid_arg "Transient.expectation_series: no times";
  if nr = 0 then invalid_arg "Transient.expectation_series: no rewards";
  Array.iter
    (fun h ->
      if Vec.dim h <> Generator.n_states g then
        invalid_arg "Transient.expectation_series: reward dimension mismatch")
    rewards;
  if times.(0) < 0. then
    invalid_arg "Transient.expectation_series: negative time";
  for j = 1 to nt - 1 do
    if times.(j) <= times.(j - 1) then
      invalid_arg "Transient.expectation_series: times not increasing"
  done;
  let out = Array.make_matrix nt nr 0. in
  let sp = Obs.span_begin obs "ctmc.expectation_series" in
  let tmax = times.(nt - 1) in
  (* a time equal to 0 is the initial expectation *)
  Array.iteri
    (fun j t ->
      if t = 0. then
        Array.iteri (fun r h -> out.(j).(r) <- Vec.dot h p0) rewards)
    times;
  let m0 = Vec.sum p0 in
  let mass = Array.make nt 0. in
  let esc = Array.make nt 0. in
  let terms = ref 1 and window = ref 0 in
  if tmax > 0. then begin
    let op = Sparse.forward ?leak g in
    let lambda = Sparse.rate op in
    let limit = poisson_cap ~lt:(lambda *. tmax) ~epsilon in
    window := limit;
    let target = 1. -. epsilon in
    (* all horizons share one v_k sweep: the expectation is linear in
       the distribution, so per term only the nr scalar dots h·v_k are
       needed, reweighted per time by Pois(λ t_j, k).  Weights are
       computed in log space with a running ln k!. *)
    let log_lt =
      Array.map
        (fun t -> if t > 0. then Float.log (lambda *. t) else 0.)
        times
    in
    let klog = Array.make nt 0. in
    let lfact = ref 0. in
    let pending = ref 0 in
    Array.iter (fun t -> if t > 0. then incr pending) times;
    let v = ref (Vec.copy p0) and w = ref (Vec.zeros (Vec.dim p0)) in
    let dots = Array.make nr 0. in
    let m = ref m0 in
    let k = ref 0 in
    let running = ref true in
    while !running do
      for r = 0 to nr - 1 do
        dots.(r) <- Vec.dot rewards.(r) !v
      done;
      for j = 0 to nt - 1 do
        if times.(j) > 0. && mass.(j) < target then begin
          let wk =
            Float.exp ((-.lambda *. times.(j)) +. klog.(j) -. !lfact)
          in
          if wk > 0. then begin
            for r = 0 to nr - 1 do
              out.(j).(r) <- out.(j).(r) +. (wk *. dots.(r))
            done;
            mass.(j) <- mass.(j) +. wk;
            esc.(j) <- esc.(j) +. (wk *. (m0 -. !m))
          end;
          if mass.(j) >= target then decr pending
        end
      done;
      if !pending = 0 || !k >= limit then running := false
      else begin
        let lost = Sparse.step_into ?pool op !v ~into:!w in
        m := !m -. lost;
        let tmp = !v in
        v := !w;
        w := tmp;
        incr k;
        lfact := !lfact +. Float.log (float_of_int !k);
        for j = 0 to nt - 1 do
          klog.(j) <- klog.(j) +. log_lt.(j)
        done
      end
    done;
    terms := !k + 1;
    if Obs.enabled obs then begin
      Obs.add obs "ctmc.spmv_flops"
        (2.
        *. float_of_int (Sparse.nnz op + Sparse.n_states op)
        *. float_of_int !k);
      Obs.gauge obs "ctmc.escaped_mass"
        (Array.fold_left Float.max 0. esc)
    end
  end;
  let certs =
    Array.init nt (fun j ->
        if times.(j) = 0. then no_certificate
        else { escaped = esc.(j); tail = Float.max 0. (m0 -. mass.(j)) })
  in
  if Obs.enabled obs then begin
    Obs.count obs "ctmc.terms" !terms;
    Obs.span_end
      ~metrics:
        [
          ("terms", float_of_int !terms);
          ("rows", float_of_int (Generator.n_states g * (!terms - 1)));
          ("escaped", Array.fold_left Float.max 0. esc);
          ("window", float_of_int !window);
        ]
      obs sp
  end
  else Obs.span_end obs sp;
  (out, certs)
