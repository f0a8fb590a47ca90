type t = F32 | F16 | I32 | I8 | Bool

let to_string = function
  | F32 -> "float"
  | F16 -> "half"
  | I32 -> "int32_t"
  | I8 -> "int8_t"
  | Bool -> "bool"

let size_in_bytes = function F32 -> 4 | F16 -> 2 | I32 -> 4 | I8 -> 1 | Bool -> 1
let is_float = function F32 | F16 -> true | I32 | I8 | Bool -> false
let equal (a : t) (b : t) = a = b
let compare = Stdlib.compare
