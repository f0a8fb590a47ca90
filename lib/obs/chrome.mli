(** Chrome trace-event exporter.

    Renders an event stream as the Trace Event Format JSON that
    [chrome://tracing] and Perfetto load: spans become complete ("X")
    events, instants "i" events, counters cumulative "C" tracks and
    histogram samples their own "C" track. Virtual seconds map to
    microseconds, so a modelled 2.5-hour compile renders as a 2.5-hour
    timeline — reproducible down to the byte across runs with one seed. *)

val to_string : Event.t list -> string
(** A complete [{"traceEvents": [...], ...}] JSON document. *)
