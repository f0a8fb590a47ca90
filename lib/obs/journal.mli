(** JSONL event journal: one JSON event per line.

    The journal is the on-disk sink: [xpiler translate --trace FILE]
    writes one, the bench harness writes one per experiment under
    [results/], and [xpiler trace FILE] replays one into the summary and
    Chrome renderers. Encoding is deterministic, so two runs with the same
    seed produce byte-identical journals. *)

val encode : Event.t list -> string
(** One event per line, each terminated by ['\n']. *)

val decode : string -> (Event.t list, string) result
(** Inverse of [encode]; blank lines are skipped, the first malformed line
    aborts with its line number. *)

val write_file : string -> Event.t list -> unit
val read_file : string -> (Event.t list, string) result
