(** Rendering of trace summaries through [Report].

    This is the in-memory sink of the observability layer: an event stream
    (live from a tracer, or replayed from a JSONL journal by
    [xpiler trace]) aggregates into [Xpiler_obs.Summary] and renders here
    as the same aligned tables / CSV machinery the benchmark harness
    uses. *)

val render : Xpiler_obs.Summary.t -> string
(** Stage breakdown, span totals, counters and histograms as tables,
    concatenated and ready to print — empty sections are omitted. *)

val render_metrics : Xpiler_obs.Metrics.sample list -> Xpiler_obs.Prof.report -> string
(** Registry snapshot rendered as counter / gauge / histogram tables
    (histograms get bucket-estimated p50/p99, and "-" for every statistic
    when empty), then the profiled span costs (wall seconds, allocated
    megawords, major GCs); empty sections omitted, tables blank-separated. *)
