(** Hierarchical spans, counters and histograms over the virtual clock.

    A tracer owns a timeline whose "now" advances only through
    [stage_charge] — wired to [Vclock.set_observer] by [Core.Xpiler] — so
    every timestamp is deterministic and span durations per stage sum to
    exactly the same totals as [Vclock.breakdown] (single source of timing
    truth). Spans nest through an explicit stack; each [Vclock] charge is
    emitted as its own leaf span with category ["stage"].

    A tracer records everything it is given: spans, stage charges,
    counters, histogram samples and instants. *)

type level = Off | Detail
(** Whether a translation is traced ([Config.trace_level]); [Off] is never
    given a tracer. *)

type t

val create : unit -> t

val now : t -> float
(** Current virtual time in seconds (sum of all stage charges so far). *)

val stage_charge : t -> string -> float -> unit
(** [stage_charge t stage seconds] emits a ["stage"]-category span of
    [seconds] at the current time and advances the clock past it. This is
    the only operation that moves time. *)

type span

val span_begin : t -> ?cat:string -> ?attrs:Event.attrs -> string -> span
val span_end : t -> span -> unit
(** Ends the given span. Any spans opened after it that are still open are
    ended first (truncated at the current time), so an exception cannot
    leave the stack misaligned. *)

val with_span : t -> ?cat:string -> ?attrs:Event.attrs -> string -> (unit -> 'a) -> 'a
(** Exception-safe [span_begin]/[span_end] bracket. *)

val count : t -> ?n:int -> string -> unit
(** Counter increment. *)

val observe : t -> string -> float -> unit
(** Histogram sample. *)

val instant : t -> ?attrs:Event.attrs -> string -> unit
(** Point event. *)

val events : t -> Event.t list
(** All events recorded so far, in emission order (a span is emitted when
    it closes, so children precede their parent). *)

val counter_total : t -> string -> int
(** Sum of all [Count] events with this name (test/inspection helper). *)

val depth : t -> int
(** Number of currently open spans. *)
