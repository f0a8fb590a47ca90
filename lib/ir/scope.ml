type t = Global | Shared | Local | Nram | Wram | Host | Fragment

let to_string = function
  | Global -> "global"
  | Shared -> "shared"
  | Local -> "local"
  | Nram -> "nram"
  | Wram -> "wram"
  | Host -> "host"
  | Fragment -> "fragment"

let equal (a : t) (b : t) = a = b
let is_on_chip = function
  | Shared | Local | Nram | Wram | Fragment -> true
  | Global | Host -> false
