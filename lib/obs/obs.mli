(** Zero-cost-when-off tracing and metrics.

    The iterative solvers of this library (Pontryagin's forward/backward
    fixpoint, the Birkhoff centre growth, differential hulls, adaptive
    RK45, Gillespie replication batches) expose their convergence
    behaviour through a single observation context threaded as an
    optional [?obs] argument.  A context is either {!off} — the shared
    no-op value, the default everywhere — or a set of sinks:

    - an in-memory {!Agg} registry (per-span call count, total and
      maximum wall time; counter sums; gauge last/min/max), and/or
    - an NDJSON {!Trace} event stream, one JSON object per line.

    {b The no-op backend trick.}  [off] is a constant constructor, so
    every probe starts with one immediate branch; {!span_begin} on [off]
    returns the preallocated {!null_span} and {!count}/{!add}/{!gauge}
    return unit — no allocation, no clock read, no formatting.  Hot
    loops additionally accumulate into local ints/floats and fire a
    single probe per solver call, so instrumented code paths with [off]
    are bit-identical to (and within noise as fast as) the
    uninstrumented ones.

    All sinks are mutex-protected: probes may fire concurrently from
    {!Umf_runtime.Runtime.Pool} worker domains. *)

(** In-memory metrics registry. *)
module Agg : sig
  type t

  type span_stat = {
    calls : int;  (** Completed spans with this name. *)
    total : float;  (** Summed wall seconds. *)
    max : float;  (** Longest single span, seconds. *)
  }

  type gauge_stat = {
    last : float;
    g_min : float;
    g_max : float;
    samples : int;
  }

  val create : ?parent:t -> unit -> t
  (** [parent] (default none) is a long-lived registry this one feeds
      its {e gauges} into: every [record_gauge] also updates the parent
      (recursively up the chain), while spans and counters stay local.
      This is how a service keeps lifetime gauge envelopes — queue
      depth, cache size, per-result error-ledger lines — across
      ephemeral per-request overlays ({!with_agg}) without
      double-counting span totals: the parent accumulates its own
      endpoint spans exactly once, and discarded request registries
      leave their gauges behind.  Parent chains must be acyclic. *)

  val reset : t -> unit
  (** Clears this registry's rows (never the parent's). *)

  val span_stats : t -> (string * span_stat) list
  (** All span rows, sorted by name. *)

  val span_stat : t -> string -> span_stat option

  val counters : t -> (string * float) list
  (** All counter sums, sorted by name. *)

  val counter : t -> string -> float
  (** A counter's sum; 0 when never incremented. *)

  val gauges : t -> (string * gauge_stat) list

  val gauge_stat : t -> string -> gauge_stat option

  (** Low-level feeders (also used by the runtime pool, whose section
      durations are measured externally). *)

  val record_span : t -> string -> dur:float -> unit

  val record_counter : t -> string -> float -> unit

  val record_gauge : t -> string -> float -> unit
end

(** A minimal JSON value — just enough to emit and validate the flat
    NDJSON event objects of {!Trace} without an external dependency. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact rendering; numbers print with enough digits to
      round-trip. *)

  val of_string : string -> t
  (** @raise Failure on malformed input. *)

  val member : string -> t -> t option
  (** Field lookup in an [Obj]; [None] otherwise. *)
end

(** NDJSON event-stream sink.  Event schema (one object per line):
    - [{"ev":"span","name":s,"t":end,"dur":d, ...metrics}]
    - [{"ev":"count","name":s,"t":t,"v":v}]
    - [{"ev":"gauge","name":s,"t":t,"v":v}]
    where times are seconds relative to the context clock. *)
module Trace : sig
  type t

  val to_channel : ?flush_interval:float -> out_channel -> t
  (** Events are written to the channel; the caller keeps ownership of
      the channel (see {!close}).  [flush_interval] bounds how stale
      the channel buffer may get: [0.] (the default) flushes after
      every record — a killed process loses at most the event being
      written — while a positive interval flushes at most every that
      many wall-clock seconds (long-running daemons streaming many
      events).  @raise Invalid_argument on a negative interval. *)

  val to_file : ?flush_interval:float -> string -> t
  (** Like {!to_channel} over a fresh file, except the sink owns the
      channel: {!close} closes it.  Pair with [Fun.protect] so the
      tail of a trace survives exceptions. *)

  val flush : t -> unit

  val close : t -> unit
  (** Flush, then close the channel if the sink owns it ({!to_file}).
      Idempotent; events emitted after [close] are dropped. *)
end

type t
(** An observation context: {!off} or a sink set. *)

type span
(** A handle for an open span: name + start time. *)

val off : t
(** The disabled context.  All probes on it are no-ops. *)

val make : ?clock:(unit -> float) -> ?agg:Agg.t -> ?trace:Trace.t -> unit -> t
(** An enabled context feeding the given sinks.  [clock] (seconds,
    monotonic enough; default wall clock relative to program start) is
    injectable for deterministic tests.  With neither sink the context
    is {!off}. *)

val with_agg : t -> Agg.t -> t
(** [with_agg t agg] observes everything [t] observes and additionally
    feeds [agg] — how {!Umf.Analysis} collects a per-call metrics
    summary on top of the caller's sinks.  Enabled even when [t] is
    {!off}.  Give [agg] a long-lived parent ({!Agg.create}) when
    gauge envelopes must outlive the overlay. *)

val with_clock : t -> (unit -> float) -> t
(** [with_clock t clock] is [t] with its clock replaced (a no-op on
    {!off}).  Beyond fake clocks for tests, this is the deadline hook
    of a serving layer: a clock that raises once a request's deadline
    has passed turns every subsequent probe into a cancellation point,
    so a deadline-exceeded request unwinds out of the solver at the
    next span boundary instead of wedging its worker. *)

val enabled : t -> bool

val checkpoint : t -> unit
(** Reads the clock: a cancellation point (see {!with_clock}) for long
    loops with no span boundary.  A no-op on {!off}. *)

val null_span : span
(** The span returned by {!span_begin} on {!off}; ending it is a
    no-op. *)

val span_begin : t -> string -> span

val span_end : ?metrics:(string * float) list -> t -> span -> unit
(** Completes a span: records its duration in every [Agg] sink and
    emits a trace event carrying [metrics] as extra fields.  [metrics]
    only reach the trace — aggregate quantities should additionally be
    fed through {!add}/{!gauge}. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] wraps [f ()] in a span (exceptions end the span
    too).  Convenience for non-hot paths; hot paths should use
    {!span_begin}/{!span_end} to avoid the closure. *)

val count : t -> string -> int -> unit
(** Increment a counter. *)

val add : t -> string -> float -> unit
(** Increment a counter by a float amount. *)

val gauge : t -> string -> float -> unit
(** Record an instantaneous value (aggregated as last/min/max). *)

val record_span : ?metrics:(string * float) list -> t -> string -> dur:float -> unit
(** Record an externally-timed span (e.g. a pool section whose duration
    was measured by the pool itself). *)
