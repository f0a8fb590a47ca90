(** Shared diagnostic record.

    Both the platform checker ([Xpiler_machine.Checker]) and the static
    analyzer ([Xpiler_analysis.Analyzer]) classify findings with the same
    category vocabulary and render them through [to_string], so per-site
    reports look identical whichever stage produced them. *)

type category = [ `Parallelism | `Memory | `Instruction | `Structural ]
type severity = Error | Warning

type t = {
  category : category;
  severity : severity;
  where : string;
  message : string;
}

val error : category -> string -> string -> t

val to_string : t -> string
(** Errors render as ["[category] where: message"] (the historical checker
    format); warnings tag the category with [|warn]. *)

val list_to_string : t list -> string
val is_error : t -> bool
