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

let to_string = function
  | Block_x -> "blockIdx.x"
  | Block_y -> "blockIdx.y"
  | Block_z -> "blockIdx.z"
  | Thread_x -> "threadIdx.x"
  | Thread_y -> "threadIdx.y"
  | Thread_z -> "threadIdx.z"
  | Task_id -> "taskId"
  | Cluster_id -> "clusterId"
  | Core_id -> "coreId"

let equal (a : t) (b : t) = a = b
let compare = Stdlib.compare

let all =
  [ Block_x; Block_y; Block_z; Thread_x; Thread_y; Thread_z; Task_id; Cluster_id; Core_id ]

let is_thread = function
  | Thread_x | Thread_y | Thread_z | Core_id -> true
  | Block_x | Block_y | Block_z | Task_id | Cluster_id -> false
