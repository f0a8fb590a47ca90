(** Process-global typed metrics registry.

    The virtual-clock tracer answers "what happened, deterministically"; this
    registry answers "how often and how expensively", accumulating labeled
    counters, gauges and bucketed histograms from anywhere in the process —
    including translations on pool worker domains (all updates are atomic or
    mutex-protected).

    {b Stability classes.} Some instrumented quantities are pure functions of
    the input and configuration (escalation rung counts, SMT verdicts, pass
    tallies, tuner reward lookups); others depend on what ran before or on
    the parallel schedule (fresh solver searches behind a warm memo). Each
    metric is registered [~stable:true/false], and
    {!snapshot}[ ~stable_only:true] keeps only the schedule-independent ones
    — that restricted snapshot is byte-identical whatever the job count of
    the pool running whole translations, which test_core asserts.
    Wall-clock time is not a registry metric: {!Prof} is the one real-time
    meter.

    Handles are interned per [(name, labels)]: registering the same pair
    twice returns a handle on the same series; reusing a name with a different kind
    raises [Invalid_argument]. Register handles once at the instrumentation
    site, not per event — the hot path is then a single atomic operation.

    {b One call per event.} A handle registered with [~trace:name] also
    forwards every update to the ambient {!Trace} facade ([inc ~n] emits
    [Trace.count ~n name], [observe v] emits [Trace.observe name v]), so an
    event that belongs in both the registry and the trace stream is
    instrumented once. The forwarded events obey the facade: nothing is
    emitted without a tracer or inside {!Trace.without}. *)

type counter
type gauge
type histogram

val counter :
  ?stable:bool -> ?help:string -> ?labels:(string * string) list -> ?trace:string -> string ->
  counter
(** [stable] defaults to [true]; label lists are sorted and deduplicated by
    key at registration. [trace] names the trace counter {!inc} forwards to. *)

val gauge : ?stable:bool -> ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram :
  ?stable:bool ->
  ?help:string ->
  ?labels:(string * string) list ->
  ?bounds:float array ->
  ?trace:string ->
  string ->
  histogram
(** [bounds] are inclusive upper bucket bounds, strictly increasing; an
    implicit overflow bucket is appended. Defaults to a 1-2.5-5 decade ladder
    from 1 to 1000. [trace] names the trace histogram {!observe} forwards
    to. *)

val inc : ?n:int -> counter -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

val value : counter -> int
(** The counter's current total (zeroed only by {!reset}); readers that
    need a window take before/after deltas. *)

(** {2 Snapshots} *)

type hist_snapshot = {
  bounds : float array;
  counts : int array;  (** per-bucket (non-cumulative), length [bounds]+1 *)
  sum : float;
  count : int;
  hmin : float;  (** 0.0 when [count = 0] *)
  hmax : float;  (** 0.0 when [count = 0] *)
}

type value = Vcounter of int | Vgauge of float | Vhist of hist_snapshot

type sample = {
  name : string;
  labels : (string * string) list;
  help : string;
  stable : bool;
  value : value;
}

val snapshot : ?stable_only:bool -> unit -> sample list
(** Deterministically ordered (by name, then labels). With
    [~stable_only:true], drops unstable metrics, leaving exactly the
    schedule-independent set. *)

val reset : unit -> unit
(** Zero all values (registrations survive). *)

val hist_quantile : hist_snapshot -> float -> float
(** Nearest-rank quantile estimated from bucket counts, clamped to the
    observed [hmin, hmax]. Defined on all inputs: an empty histogram yields
    [0.0], a single-sample histogram yields that sample's bucket value
    ([hmin]); [q <= 0] yields [hmin], [q >= 1] yields [hmax]. *)

(** {2 Exports} *)

val to_openmetrics : sample list -> string
(** OpenMetrics / Prometheus text exposition: [# HELP]/[# TYPE] headers,
    cumulative [_bucket{le="..."}] series plus [_sum]/[_count] for
    histograms, terminated by [# EOF]. *)

val to_json : sample list -> Json.t
(** Deterministic JSON array of samples, embeddable as the [metrics] section
    of the self-contained report JSON. *)
