(* Soundness gates for the unified Cert layer.

   1. qcheck: random combinator chains over Cert values must keep the
      certified interval around a double-double reference of the same
      chain — 10^4 random points, plus 10^4 random (x, θ) points per
      bundled model checking Certified.drift_cert against a
      double-double evaluation of the symbolic drift.
   2. The adaptive imprecise sweep must land within its own certified ε
      of a 10x-finer fixed grid on SIR and cholera, and its a-priori
      promise eps <= ε must hold.
   3. Analysis.first_passage returns certified, ordered, monotone
      bounds with a finite ledger on every registry model. *)

open Umf

(* ------------------------------------------------------------------ *)
(* double-double reference arithmetic (Dekker/Knuth error-free
   transforms): ~32 significant digits, enough to stand in for the
   exact value against plain-float certificates *)

module Dd = struct
  type t = { hi : float; lo : float }

  let of_float x = { hi = x; lo = 0. }
  let zero = of_float 0.

  let two_sum a b =
    let s = a +. b in
    let bv = s -. a in
    let err = (a -. (s -. bv)) +. (b -. bv) in
    (s, err)

  let quick_two_sum a b =
    let s = a +. b in
    let err = b -. (s -. a) in
    (s, err)

  let two_prod a b =
    let p = a *. b in
    let err = Float.fma a b (-.p) in
    (p, err)

  let norm (s, e) =
    let hi, lo = quick_two_sum s e in
    { hi; lo }

  let add a b =
    let s, e = two_sum a.hi b.hi in
    norm (s, e +. a.lo +. b.lo)

  let neg a = { hi = -.a.hi; lo = -.a.lo }
  let sub a b = add a (neg b)

  let mul a b =
    let p, e = two_prod a.hi b.hi in
    norm (p, e +. (a.hi *. b.lo) +. (a.lo *. b.hi))

  let div a b =
    let q1 = a.hi /. b.hi in
    let r = sub a (mul (of_float q1) b) in
    norm (quick_two_sum q1 (r.hi /. b.hi))

  let scale c a = mul (of_float c) a
  let to_float a = a.hi +. a.lo

  let compare a b =
    match Float.compare a.hi b.hi with
    | 0 -> Float.compare a.lo b.lo
    | c -> c

  let min_ a b = if compare a b <= 0 then a else b
  let max_ a b = if compare a b >= 0 then a else b

  let rec pow a k = if k <= 0 then of_float 1. else mul a (pow a (k - 1))
end

let rec dd_eval (e : Expr.t) ~x ~th =
  match e with
  | Expr.Const c -> Dd.of_float c
  | Var i -> Dd.of_float x.(i)
  | Theta j -> Dd.of_float th.(j)
  | Add (a, b) -> Dd.add (dd_eval a ~x ~th) (dd_eval b ~x ~th)
  | Sub (a, b) -> Dd.sub (dd_eval a ~x ~th) (dd_eval b ~x ~th)
  | Mul (a, b) -> Dd.mul (dd_eval a ~x ~th) (dd_eval b ~x ~th)
  | Div (a, b) -> Dd.div (dd_eval a ~x ~th) (dd_eval b ~x ~th)
  | Neg a -> Dd.neg (dd_eval a ~x ~th)
  | Pow (a, k) -> Dd.pow (dd_eval a ~x ~th) k
  | Min (a, b) -> Dd.min_ (dd_eval a ~x ~th) (dd_eval b ~x ~th)
  | Max (a, b) -> Dd.max_ (dd_eval a ~x ~th) (dd_eval b ~x ~th)
  | Ite (g, a, b) ->
      if Dd.to_float (dd_eval g ~x ~th) <= 0. then dd_eval a ~x ~th
      else dd_eval b ~x ~th

(* ------------------------------------------------------------------ *)
(* 1a. combinator chains: certified interval brackets the dd truth     *)

(* one random op applied to (certificate, dd truth) in lockstep; every
   op keeps the invariant "truth ∈ cert.value" if the combinators are
   sound *)
type op =
  | OAdd of float
  | OSub of float
  | OScale of float
  | OWiden of float * float  (** (amount, true offset |offset| <= amount) *)
  | OJoin of float
  | OCompose of float * float  (** f(v) = l·v + k *)

let apply_op (cert, truth) = function
  | OAdd b -> (Cert.add cert (Cert.exact b), Dd.add truth (Dd.of_float b))
  | OSub b -> (Cert.sub cert (Cert.exact b), Dd.sub truth (Dd.of_float b))
  | OScale c -> (Cert.scale c cert, Dd.scale c truth)
  | OWiden (w, off) ->
      (* widening models an error source: the certified answer may
         drift by up to w; the "true" answer moves by off <= w *)
      (Cert.widen ~discretisation:w cert, Dd.add truth (Dd.of_float off))
  | OJoin b ->
      (* join is a disjunction — the old truth stays a valid witness *)
      (Cert.join cert (Cert.exact b), truth)
  | OCompose (l, k) ->
      let lo = Interval.lo cert.Cert.value
      and hi = Interval.hi cert.Cert.value in
      let a = (l *. lo) +. k and b = (l *. hi) +. k in
      let value = Interval.make (Float.min a b) (Float.max a b) in
      let composed = Cert.compose ~lipschitz:(Float.abs l) ~value cert in
      (* the enclosure endpoints round in plain float: pad the ledger
         with an explicit ulp-level rounding line so the certificate
         stays an outer bracket of the dd truth *)
      let pad =
        1e-12 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))
      in
      ( Cert.widen ~rounding:pad composed,
        Dd.add (Dd.scale l truth) (Dd.of_float k) )

let op_gen =
  QCheck.Gen.(
    let f = float_range (-10.) 10. in
    let small = float_range 0. 1. in
    frequency
      [
        (3, map (fun b -> OAdd b) f);
        (3, map (fun b -> OSub b) f);
        (3, map (fun c -> OScale c) (float_range (-4.) 4.));
        ( 2,
          map2 (fun w frac -> OWiden (w, (2. *. frac -. 1.) *. w)) small small
        );
        (2, map (fun b -> OJoin b) f);
        (2, map2 (fun l k -> OCompose (l, k)) (float_range (-3.) 3.) f);
      ])

let chain_arb =
  QCheck.make
    ~print:(fun (x0, ops) ->
      Printf.sprintf "start=%g, %d ops" x0 (List.length ops))
    QCheck.Gen.(pair (float_range (-10.) 10.) (list_size (int_range 1 8) op_gen))

let prop_chain_brackets_dd =
  QCheck.Test.make ~name:"combinator chain brackets double-double truth"
    ~count:10_000 chain_arb (fun (x0, ops) ->
      let cert, truth =
        List.fold_left apply_op (Cert.exact x0, Dd.of_float x0) ops
      in
      let t = Dd.to_float truth in
      (* a tiny absolute slack absorbs the inward rounding of the plain
         float interval endpoints; the dd truth carries ~32 digits *)
      let slack = 1e-9 *. Float.max 1. (Float.abs t) in
      Cert.brackets cert t
      || (Interval.lo cert.Cert.value -. slack <= t
         && t <= Interval.hi cert.Cert.value +. slack))

let prop_budget_lines_sane =
  QCheck.Test.make ~name:"budget lines stay non-negative along any chain"
    ~count:2_000 chain_arb (fun (x0, ops) ->
      let cert, _ =
        List.fold_left apply_op (Cert.exact x0, Dd.of_float x0) ops
      in
      List.for_all
        (fun (_, v) -> (not (Float.is_nan v)) && v >= 0.)
        (Cert.lines cert))

(* ------------------------------------------------------------------ *)
(* 1b. drift_cert vs a double-double drift evaluation per model        *)

let dd_drift model ~x ~th i =
  List.fold_left
    (fun acc (tr : Model.transition) ->
      if tr.Model.change.(i) = 0. then acc
      else
        Dd.add acc
          (Dd.mul (Dd.of_float tr.Model.change.(i)) (dd_eval tr.rate ~x ~th)))
    Dd.zero (Model.transitions model)

let test_drift_cert_brackets_dd () =
  let rng = Rng.create 42 in
  let sample (box : Optim.Box.t) =
    Array.mapi
      (fun j lo -> lo +. (Rng.float rng *. (box.Optim.Box.hi.(j) -. lo)))
      box.Optim.Box.lo
  in
  List.iter
    (fun (name, m) ->
      let certs = Certified.drift_cert m in
      let clip = Model.clip m and theta = Model.theta m in
      let dim = Model.dim m in
      for _ = 1 to 10_000 do
        let x = sample clip and th = sample theta in
        for i = 0 to dim - 1 do
          let c = certs.(i) in
          if not (Cert.is_vacuous c) then begin
            let truth = Dd.to_float (dd_drift m ~x ~th i) in
            let slack = 1e-9 *. Float.max 1. (Float.abs truth) in
            if
              not
                (Interval.lo c.Cert.value -. slack <= truth
                && truth <= Interval.hi c.Cert.value +. slack)
            then
              Alcotest.failf
                "%s: drift_cert coordinate %d %s misses dd value %.17g" name
                i (Cert.to_string c) truth
          end
        done
      done)
    (Registry.all ())

(* ------------------------------------------------------------------ *)
(* 2. adaptive sweep vs a 10x-finer fixed grid (SIR, cholera)          *)

let imprecise_of model ~n ~max_states =
  let sp =
    Ctmc_of_population.state_space ~clip:(Model.clip model) ~max_states
      ~truncation:`Adaptive model ~n ~x0:(Model.x0 model)
  in
  let im = Ctmc_of_population.imprecise ~theta:(Model.theta model) sp model in
  (sp, im)

let adaptive_gate name model ~n =
  let _, im = imprecise_of model ~n ~max_states:400 in
  let states = Ctmc.Imprecise.n_states im in
  let horizon = 1.0 in
  let lambda = Ctmc.Imprecise.max_exit_bound im in
  (* size ε so the projected worst-case step count T²λ²/ε stays around
     2·10^5 — the gate must run on 1-core CI *)
  let epsilon =
    Float.max 0.02 (horizon *. horizon *. lambda *. lambda /. 2e5)
  in
  (* reward with osc 1: the density of coordinate 0 scaled into [0,1] *)
  let h = Array.init states (fun i -> float_of_int (i mod 7) /. 6.) in
  List.iter
    (fun sense ->
      let adaptive =
        Ctmc.Imprecise.adaptive_series ~epsilon ~sense im ~h
          ~times:[| horizon |]
      in
      Alcotest.(check bool)
        (name ^ ": a-priori promise eps <= epsilon")
        true
        (adaptive.Ctmc.Imprecise.eps.(0) <= epsilon +. 1e-12);
      let spu_adaptive =
        Float.of_int adaptive.Ctmc.Imprecise.steps /. horizon
      in
      let spu_fixed = 10 * int_of_float (Float.ceil spu_adaptive) in
      let fixed =
        Ctmc.Imprecise.fixed_series ~steps_per_unit:spu_fixed ~sense im ~h
          ~times:[| horizon |]
      in
      let dist =
        Vec.dist_inf adaptive.Ctmc.Imprecise.values.(0)
          fixed.Ctmc.Imprecise.values.(0)
      in
      let allowance =
        adaptive.Ctmc.Imprecise.eps.(0)
        +. adaptive.Ctmc.Imprecise.rounding.(0)
        +. fixed.Ctmc.Imprecise.eps.(0)
        +. fixed.Ctmc.Imprecise.rounding.(0)
      in
      if dist > allowance then
        Alcotest.failf
          "%s (%s): adaptive is %.3g from the 10x fixed grid, certified \
           allowance %.3g (eps %.3g)"
          name
          (match sense with `Lower -> "lower" | `Upper -> "upper")
          dist allowance adaptive.Ctmc.Imprecise.eps.(0))
    [ `Lower; `Upper ]

let test_adaptive_vs_fixed_sir () =
  adaptive_gate "sir" (Registry.find_exn "sir") ~n:6

let test_adaptive_vs_fixed_cholera () =
  adaptive_gate "cholera" (Registry.find_exn "cholera") ~n:4

(* ------------------------------------------------------------------ *)
(* 3. first_passage: certified bounds on every registry model          *)

let test_first_passage_all_models () =
  List.iter
    (fun (name, m) ->
      let spec = Analysis.spec ~horizon:1. m in
      let x0 = Model.x0 m in
      (* leave the start state outside the target so τ > 0 *)
      let target (x : Vec.t) = x.(0) <= (x0.(0) /. 2.) -. 1e-9 in
      let fp =
        Analysis.first_passage
          ~times:(Vec.linspace 0. 1. 5)
          ~epsilon:0.25 ~max_states:1500 spec ~n:3 ~target
      in
      Alcotest.(check bool) (name ^ ": retained states") true (fp.states > 0);
      let nt = Array.length fp.Analysis.times in
      for j = 0 to nt - 1 do
        let lo = fp.hit_lower.(j) and hi = fp.hit_upper.(j) in
        if not (0. <= lo && lo <= hi && hi <= 1.) then
          Alcotest.failf "%s: hit bounds disordered at t=%g: [%g, %g]" name
            fp.Analysis.times.(j) lo hi;
        if j > 0 && fp.hit_lower.(j) < fp.hit_lower.(j - 1) -. 1e-12 then
          Alcotest.failf "%s: lower hitting bound not monotone" name
      done;
      if
        not
          (0. <= fp.mfpt_lower
          && fp.mfpt_lower <= fp.mfpt_upper
          && fp.mfpt_upper <= 1. +. 1e-12)
      then
        Alcotest.failf "%s: mfpt bracket disordered: [%g, %g]" name
          fp.mfpt_lower fp.mfpt_upper;
      if Cert.is_vacuous fp.cert then
        Alcotest.failf "%s: vacuous first-passage certificate %s" name
          (Cert.to_string fp.cert);
      List.iter
        (fun (line, v) ->
          if not (Float.is_finite v) then
            Alcotest.failf "%s: budget line %s not finite" name line)
        (Cert.lines fp.cert))
    (Registry.all ())

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cert"
    [
      ( "combinators",
        [
          QCheck_alcotest.to_alcotest prop_chain_brackets_dd;
          QCheck_alcotest.to_alcotest prop_budget_lines_sane;
          Alcotest.test_case "drift_cert brackets dd reference per model"
            `Slow test_drift_cert_brackets_dd;
        ] );
      ( "adaptive_sweep",
        [
          Alcotest.test_case "within certified eps of 10x fixed grid (sir)"
            `Quick test_adaptive_vs_fixed_sir;
          Alcotest.test_case
            "within certified eps of 10x fixed grid (cholera)" `Quick
            test_adaptive_vs_fixed_cholera;
        ] );
      ( "first_passage",
        [
          Alcotest.test_case "certified bounds on all registry models" `Slow
            test_first_passage_all_models;
        ] );
    ]
