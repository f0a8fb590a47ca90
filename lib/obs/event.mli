(** Trace events: the unit of observability.

    All timestamps are virtual seconds on the deterministic [Vclock]
    timeline — the tracer's "now" only advances when a pipeline stage
    charges modelled time — so an event stream is a pure function of the
    configuration and seed. Events serialize one-per-line as JSON (the
    JSONL journal format replayed by [xpiler trace]). *)

type attrs = (string * string) list

type t =
  | Span of {
      name : string;
      cat : string;  (** grouping: "translate", "phase", "pass", "stage" *)
      ts : float;  (** virtual start time, seconds *)
      dur : float;  (** virtual duration, seconds *)
      depth : int;  (** nesting depth at which the span was open *)
      attrs : attrs;
    }
  | Instant of { name : string; ts : float; attrs : attrs }
      (** a point event: outcomes, decisions *)
  | Count of { name : string; ts : float; n : int }
      (** counter increment (monotone; summaries report the total) *)
  | Observe of { name : string; ts : float; v : float }
      (** histogram sample (summaries report n/min/mean/max) *)

val name : t -> string
val ts : t -> float

val to_json : t -> Json.t

val encode_line : t -> string
(** One JSONL line, without the trailing newline. *)

val decode_line : string -> (t, string) result
