(* One diagnostic vocabulary for every static decision procedure: the
   platform checker (compilation errors) and the static analyzer (races,
   barrier divergence, bounds, def-use) report through the same record, so
   formatting and category names live in exactly one place. *)

type category = [ `Parallelism | `Memory | `Instruction | `Structural ]
type severity = Error | Warning

type t = {
  category : category;
  severity : severity;
  where : string;
  message : string;
}

let category_name = function
  | `Parallelism -> "parallelism"
  | `Memory -> "memory"
  | `Instruction -> "instruction"
  | `Structural -> "structural"

let error category where message = { category; severity = Error; where; message }

(* errors keep the historical checker format so messages embedded in
   pipeline statuses (and anything matching on them) are unchanged *)
let to_string d =
  match d.severity with
  | Error -> Printf.sprintf "[%s] %s: %s" (category_name d.category) d.where d.message
  | Warning ->
    Printf.sprintf "[%s|warn] %s: %s" (category_name d.category) d.where d.message

let list_to_string ds = String.concat "\n" (List.map to_string ds)
let is_error d = d.severity = Error
