(** Ambient tracing facade.

    The pipeline's libraries (core, neural, ops, repair, smt, tuning)
    record metrics without threading a tracer through every signature: they
    call the functions below, which no-op unless a tracer is in scope. The
    evaluators (interpreter engines, cost model, checker, static analyzer)
    emit nothing; the caller that owns a run meters it: the unit-test
    oracle its trials (the localizer's probes included), [finalize] its cost
    estimate and per-pass validation the analyzer's findings. Tracing only
    records, so no caller ever has to suspend it.
    [Core.Xpiler] scopes one per translation when
    [Config.trace_level <> Off]; the bench harness scopes one around a
    whole experiment to journal every case into one file. An event also
    counted in the metrics registry is recorded once, through a [Metrics]
    handle registered with [~trace], which calls {!count} / {!observe}
    itself.

    The current tracer is a {!Xpiler_util.Session} value: a translation
    runs on one domain, and every [Util.Pool] task starts with no tracer,
    so pooled translations never race on the caller's event stream, and
    [jobs=1] (inline) and [jobs>1] runs emit the same events: none from
    inside the tasks. *)

val with_tracer : Tracer.t -> (unit -> 'a) -> 'a
(** Runs the function with the tracer current on this domain, restoring
    the caller's tracer (or none) on exit, including by exception. *)

val current : unit -> Tracer.t option

val enabled : unit -> bool
(** A tracer is current. *)

val span :
  ?cat:string -> ?attrs:Event.attrs -> ?prof:string -> string -> (unit -> 'a) -> 'a
(** Runs the function inside a span on the current tracer; just runs it
    when tracing is off. The same span always feeds the wall-clock profiler
    ({!Prof.span}) under the row key [prof] (default: the span name) — via
    its segregated stream, so the tracer's event sequence is unchanged.
    Pass [prof] when the span name is unbounded, so the profiler keeps one
    row per family. *)

val count : ?n:int -> string -> unit
val observe : string -> float -> unit
val instant : ?attrs:Event.attrs -> string -> unit
