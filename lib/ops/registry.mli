(** The evaluated benchmark (Table 5): 21 operators x 8 shapes = 168 cases. *)

val all : Opdef.t list
val find : string -> Opdef.t option
val find_exn : string -> Opdef.t

type case = { op : Opdef.t; shape : Opdef.shape; case_id : string }

val cases : unit -> case list
(** All 168 cases in a stable order; [case_id] is ["op@dim=n,..."]. *)

