(** Wall-clock and allocation profiler: the process's one real-time meter.

    The tracer's timeline is the deterministic virtual clock; this module
    measures what the same marks cost in {e real} time and allocation,
    sampling [Unix.gettimeofday] and [Gc.counters] around the spans the
    {!Trace} facade already delimits, plus the profiler-only spans the
    repairer ([repair.localize], [repair.solve], [repair.test],
    [repair.score]) and the solver ([smt.search]) open with {!span}. It
    brackets work and never guesses: only what runs inside a span is
    attributed to it.

    The profiler stream is deliberately segregated from the tracer: nothing
    here ever emits a trace event or touches a journal, so golden traces are
    byte-identical whatever was measured. Results are pulled with {!report}
    or {!row} and exported as a separate JSON object / report table.

    Always on. Rows accumulate for the life of the process (or since
    {!reset}); readers that need a window take before/after deltas. Row
    keys must come from a bounded set of names. *)

val reset : unit -> unit
(** Drops every row and restarts the total-wall window. *)

val span : string -> (unit -> 'a) -> 'a
(** Run the thunk, aggregating wall seconds, words allocated by the calling
    domain (minor + major − promoted) and finished major GC cycles under the
    span name. Exceptions still record the partial cost. [Trace.span] calls
    this for every span it opens. *)

(** {2 Reports} *)

type span_row = { span : string; count : int; wall_s : float; alloc_words : float; majors : int }
type report = {
  span_rows : span_row list;  (** sorted by span name *)
  total_wall : float;  (** wall seconds since process start or the last {!reset} *)
}

val row : string -> span_row
(** One span's totals; all zero when the span never ran. *)

val report : unit -> report
val to_json : report -> Json.t
