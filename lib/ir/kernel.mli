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

val hash : t -> int
(** Cheap full-depth structural hash, consistent with [equal]. Replaces
    [Marshal]-based keys in the tuner's reward cache and keys the evaluation
    engine's compile/throughput/reference-output memo tables
    (via [Hashtbl.Make]). *)

val cache_key : t -> string
(** Content-addressed cache key: a hex digest of the kernel's marshalled
    structure with {!hash} mixed in. Consistent with [equal];
    collision-resistant, unlike the bare structural {!hash}. The evaluation
    engine's compile memo ([Compile.cached]) keys on it. *)

val axis_extent : t -> Axis.t -> int option
val with_body : t -> Stmt.t list -> t
val with_launch : t -> (Axis.t * int) list -> t
val total_parallelism : t -> int
(** Product of all launch extents (1 when fully sequential). *)

val map_body : (Stmt.t list -> Stmt.t list) -> t -> t
val to_string : t -> string
