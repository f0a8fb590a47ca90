(** Built-in parallel variables of the evaluated platforms.

    CUDA/HIP expose a SIMT grid ([blockIdx]/[threadIdx]); the Cambricon MLU
    exposes task-level and multi-core parallelism ([taskId], [clusterId],
    [coreId]); the VNNI CPU has no parallel built-ins in our dialect. *)

type t =
  | Block_x
  | Block_y
  | Block_z
  | Thread_x
  | Thread_y
  | Thread_z
  | Task_id
  | Cluster_id
  | Core_id

val to_string : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int
val all : t list

val is_thread : t -> bool
(** Axes whose iterations share a barrier: threadIdx.* and the MLU's
    [coreId]. *)

