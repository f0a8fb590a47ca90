(** Inert. No search reads or writes a schedule database: a tuned search
    starts from its input kernel alone. [t], {!default} and {!clear} are
    kept only because [e2ebench/layers.ml] names them; drop them together. *)

type t

val default : t
val clear : t -> unit
