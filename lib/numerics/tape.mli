(** Compiled evaluation tapes for {!Expr} trees.

    [compile] flattens an array of expressions into a single linear
    instruction tape: a topological ordering of the distinct subtrees
    (structural common-subexpression elimination — a subexpression
    shared between drift coordinates is computed once per evaluation),
    with constants preloaded into dedicated workspace slots so they
    cost nothing at run time.

    Evaluation writes into a caller-supplied workspace and output
    vector, so the inner loop allocates nothing — compiled rates run
    at hand-written-closure speed.  The same tape also evaluates in
    interval arithmetic over a second workspace, giving the certified
    enclosures used by the differential hull.

    Semantics match {!Expr.eval} / {!Expr.eval_interval} operation for
    operation (same association order, same [Pow] recurrences), with
    one deliberate difference: [Ite] evaluates both branches eagerly
    and then selects, where the tree interpreter only descends into
    the active branch.  Both branches of every model conditional are
    total (division floors), so the results are identical. *)

type t

val compile : Expr.t array -> t
(** Flatten the expressions into one shared tape.  The i-th output of
    the tape is the value of the i-th expression. *)

val n_outputs : t -> int

val n_instructions : t -> int
(** Instructions executed per evaluation (constants excluded — they
    are preloaded, not executed). *)

val n_slots : t -> int
(** Workspace width: distinct subexpressions + constants. *)

val n_nodes : Expr.t array -> int
(** Total tree-node count of the source expressions — compare with
    {!n_instructions} to measure the CSE sharing factor. *)

(** {1 Evaluation plans}

    The one evaluation API.  A plan pre-resolves everything an
    evaluation needs — workspace layout, per-domain scalar / interval /
    batch scratch — so every entry point below is allocation-free after
    the first call on each domain, and safe to call concurrently from
    multiple domains ([Domain.DLS] scratch).  Build a plan once per
    tape, next to [compile], and share it. *)

module Plan : sig
  type tape := t

  type t

  type runner = int -> (int -> unit) -> unit
  (** A chunk scheduler: [par n_chunks f] must call [f ci] exactly once
      for every [0 <= ci < n_chunks], in any order, possibly
      concurrently — [Runtime.Pool.parallel_for] partially applied, or
      the built-in sequential loop. *)

  val make : ?chunk:int -> tape -> t
  (** Pre-compile an evaluation plan.  [chunk] (default 64) is the
      batch lane count: the structure-of-arrays scratch holds
      [n_slots * chunk] floats per domain and {!run_batch} dispatches
      each instruction once per chunk of that many rows.
      @raise Invalid_argument if [chunk < 1]. *)

  val tape : t -> tape

  val chunk : t -> int

  val run : t -> x:Vec.t -> th:Vec.t -> out:Vec.t -> unit
  (** Scalar mode: run the tape at one point; [out.(i)] receives the
      i-th expression's value.  @raise Invalid_argument on dimension
      mismatches. *)

  val run_alloc : t -> x:Vec.t -> th:Vec.t -> Vec.t
  (** {!run} into a fresh result vector. *)

  val run_interval :
    t -> x:Interval.t array -> th:Interval.t array -> Interval.t array
  (** Interval mode: conservative enclosure of every output over boxes
      of states and parameters.  Matches {!Expr.eval_interval} except
      that undecided [Ite] guards hull both (eagerly computed)
      branches. *)

  val run_batch : ?par:runner -> t -> xs:Mat.t -> ths:Mat.t -> out:Mat.t -> unit
  (** Batch mode: row [i] of [out] receives the tape's outputs at state
      [xs] row [i] and parameters [ths] row [i].  Rows are processed in
      chunks of {!chunk} lanes, each instruction dispatched once per
      chunk (structure-of-arrays inner loops); [par] schedules the
      chunks ([Runtime.Pool.parallel_for] partially applied —
      sequential by default).  Chunks write disjoint output rows and
      every lane performs exactly the scalar op sequence, so the result
      is bit-identical to a {!run} loop over the rows for any [par].
      @raise Invalid_argument on an empty batch, mismatched row counts,
      inputs narrower than the tape's [input_dims], or an output
      narrower than [n_outputs] — shapes are spelled out in the
      message, nothing is evaluated partially. *)
end

(** {1 Static-analysis view}

    A decoded, read-only rendering of the compiled instruction stream.
    {!Tape_check} abstractly interprets it and the test suite's
    reference evaluators (e.g. double-double) replay it; neither needs
    access to the packed int-code.  All slot indices refer to the one
    shared workspace laid out [constants | variables | parameters |
    temporaries]; {!slot_kind} classifies each index. *)

type slot_kind =
  | Slot_const of float  (** preloaded constant *)
  | Slot_var of int  (** state coordinate x_i *)
  | Slot_theta of int  (** parameter coordinate θ_j *)
  | Slot_temp  (** written by exactly one instruction *)

type vinstr =
  | V_add of int * int
  | V_sub of int * int
  | V_mul of int * int
  | V_div of int * int
  | V_neg of int
  | V_pow of int * int  (** base slot, literal exponent (≥ 0) *)
  | V_min of int * int
  | V_max of int * int
  | V_ite of int * int * int
      (** guard, then-branch (guard ≤ 0), else-branch *)
  | V_muladd of int * int * int  (** fl(a·b) + c *)
  | V_submul of int * int * int  (** a − fl(b·c) *)
  | V_mulsub of int * int * int  (** fl(a·b) − c *)

val instructions : t -> (int * vinstr) array
(** [(dst, instr)] pairs in execution order — exactly the instructions
    {!eval_into} executes, fused forms included. *)

val slot_kind : t -> int -> slot_kind
(** Classification of a workspace slot.
    @raise Invalid_argument on an out-of-range index. *)

val output_slots : t -> int array
(** The workspace slot holding each output, in output order.  An
    output slot need not be a temporary: a constant or input
    expression compiles to a direct reference. *)

val input_dims : t -> int * int
(** [(n_vars, n_thetas)]: minimum admissible input dimensions. *)
