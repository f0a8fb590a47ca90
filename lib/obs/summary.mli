(** In-memory aggregation of an event stream.

    This is the data behind the summary tables [xpiler trace] prints (the
    rendering itself lives in [Core.Obs_report], next to [Report]). Stage
    rows follow [Vclock]'s canonical stage order and omit zero-total
    stages, mirroring [Vclock.breakdown]; counter and histogram rows sort
    by name so output is stable. *)

type hist = { n : int; min : float; max : float; mean : float; total : float }

type t = {
  total_seconds : float;  (** sum of stage-span durations = [Vclock.elapsed] *)
  stages : (string * float) list;  (** canonical stage order, zeros omitted *)
  spans : (string * int * float) list;
      (** non-stage spans: name, count, total duration; first-seen order *)
  counters : (string * int) list;  (** sorted by name *)
  histograms : (string * hist) list;  (** sorted by name *)
  events : int;  (** total event count *)
}

val of_events : Event.t list -> t

val stage_total : t -> string -> float
(** Total for one stage name; 0 when absent. *)
