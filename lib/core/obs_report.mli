(** Rendering of trace summaries through [Report].

    This is the in-memory sink of the observability layer: an event stream
    (live from a tracer, or replayed from a JSONL journal by
    [xpiler trace]) aggregates into [Xpiler_obs.Summary] and renders here
    as the same aligned tables / CSV machinery the benchmark harness
    uses. *)

val tables : Xpiler_obs.Summary.t -> Report.t list
(** Stage breakdown, span totals, counters and histograms — empty sections
    are omitted. *)

val render : Xpiler_obs.Summary.t -> string
(** All tables concatenated, ready to print. *)

val render_metrics : Xpiler_obs.Metrics.sample list -> string
(** Registry snapshot rendered as counter / gauge / histogram tables
    (histograms get bucket-estimated p50/p99); empty sections omitted. *)

val render_prof : Xpiler_obs.Prof.report -> string
(** Profiled span costs (wall seconds, allocated megawords, major GCs);
    empty when no span was profiled. *)
