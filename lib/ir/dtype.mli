(** Element types carried by tensor-program buffers and scalars. *)

type t = F32 | F16 | I32 | I8 | Bool

val to_string : t -> string
val size_in_bytes : t -> int
val is_float : t -> bool
val equal : t -> t -> bool
