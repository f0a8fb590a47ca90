(** Kernels: the unit of transcompilation.

    A kernel is a named entry point with buffer/scalar parameters, an optional
    launch configuration (extents of the parallel axes the body binds), and a
    statement body. The launch configuration plays the role of the
    [<<<grid, block>>>] launch in CUDA or the task dimension on the MLU. *)

type param = { name : string; dtype : Dtype.t; is_buffer : bool }

type t = {
  name : string;
  params : param list;
  launch : (Axis.t * int) list;  (** extent of each bound parallel axis *)
  body : Stmt.t list;
}

val make : name:string -> params:param list -> ?launch:(Axis.t * int) list -> Stmt.t list -> t
val buffer_params : t -> param list
val scalar_params : t -> param list
val param_names : t -> string list
val equal : t -> t -> bool
(** Structural equality; [true] at once on a shared kernel, and without a
    walk of any statement or block the two bodies share. *)

val hash : t -> int
(** Cheap full-depth structural hash, consistent with [equal]. Together with
    [equal] it is the one key scheme of every kernel-keyed memo: the compile
    cache, the tuner's per-search reward tables and the unit-test verdict
    memo. *)

val axis_extent : t -> Axis.t -> int option
val with_body : t -> Stmt.t list -> t
val with_launch : t -> (Axis.t * int) list -> t
val total_parallelism : t -> int
(** Product of all launch extents (1 when fully sequential). *)

val map_body : (Stmt.t list -> Stmt.t list) -> t -> t
(** The kernel itself when [f] returns its body physically. *)

val to_string : t -> string
