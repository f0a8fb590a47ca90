(** Wall-clock and allocation profiler.

    The tracer's timeline is the deterministic virtual clock; this module
    measures what the same marks cost in {e real} time and allocation,
    sampling [Unix.gettimeofday] and [Gc.quick_stat] around the spans the
    {!Trace} facade already delimits. It brackets work and never guesses:
    only what runs inside a span is attributed to it.

    The profiler stream is deliberately segregated from the tracer: nothing
    here ever emits a trace event or touches a journal, so golden traces stay
    byte-identical whether profiling is on or off. Results are pulled with
    {!report} and exported as a separate JSON object / report table.

    Disabled by default; [Core.Xpiler] brackets a translation with
    {!enable}/{!disable} when [Config.profile] is set. When disabled, every
    entry point is a no-op behind a single atomic load. *)

val enable : unit -> unit
(** Starts the total-wall window; aggregates from a previous enabled period
    are kept (call {!reset} for a clean slate). *)

val disable : unit -> unit
val is_enabled : unit -> bool
val reset : unit -> unit

val span : string -> (unit -> 'a) -> 'a
(** Run the thunk, aggregating wall seconds, allocated words
    (minor + major − promoted) and major collections under the span name.
    Exceptions still record the partial cost. [Trace.span] calls this
    automatically while profiling is enabled. *)

(** {2 Reports} *)

type span_row = { span : string; count : int; wall_s : float; alloc_words : float; majors : int }
type report = {
  span_rows : span_row list;  (** sorted by span name *)
  total_wall : float;  (** wall seconds from {!enable} to {!disable} (or now) *)
}

val report : unit -> report
val to_json : report -> Json.t
