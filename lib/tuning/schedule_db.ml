(* Inert: kept only because e2ebench/layers.ml names it. *)
type t = unit

let default = ()
let clear () = ()
