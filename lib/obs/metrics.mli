(** Process-global typed metrics registry.

    The virtual-clock tracer answers "what happened, deterministically"; this
    registry answers "how often and how expensively", accumulating labeled
    counters, gauges and bucketed histograms from anywhere in the process —
    including translations on pool worker domains (all updates are atomic or
    mutex-protected).

    {b One class.} Every translation cache is a session value and every
    pool task runs in a fresh session, so each series, memo lookups and
    fresh solver searches alike, depends only on the work a session did:
    the whole snapshot is the same whatever the job count of the pool
    running whole translations, which test_sessions asserts. Wall-clock
    time is not a registry metric: {!Prof} is the one real-time meter.

    Handles are interned per [(name, labels)]: registering the same pair
    twice returns a handle on the same series; reusing a name with a different kind
    raises [Invalid_argument]. Register handles once at the instrumentation
    site, not per event — the hot path is then a single atomic operation.

    {b One call per event.} A handle registered with [~trace:name] also
    forwards every update to the ambient {!Trace} facade ([inc ~n] emits
    [Trace.count ~n name], [observe v] emits [Trace.observe name v]), so an
    event that belongs in both the registry and the trace stream is
    instrumented once. The forwarded events obey the facade: nothing is
    emitted without a tracer. *)

type counter
type gauge
type histogram

val counter :
  ?help:string -> ?labels:(string * string) list -> ?trace:string -> string -> counter
(** Label lists are sorted and deduplicated by key at registration. [trace]
    names the trace counter {!inc} forwards to. *)

val gauge : ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram :
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
  value : value;
}

val snapshot : unit -> sample list
(** Every registered series, deterministically ordered (by name, then
    labels). *)

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
