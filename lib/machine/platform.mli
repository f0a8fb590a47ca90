open Xpiler_ir
(** Descriptors of the four evaluated deep learning systems (Table 1).

    A platform defines which parallel axes, memory scopes and specialized
    intrinsics exist, the legality constraints on their use (compilation
    accuracy checks), the concrete surface spelling of each intrinsic, and
    the roofline parameters of the analytical cost model. *)

type id = Cuda | Bang | Hip | Vnni

type cost_params = {
  clock_ghz : float;
  num_cores : int;  (** SMs / MLU cores / CPU cores *)
  threads_per_core : int;  (** resident SIMT threads or SIMD width units *)
  scalar_flops_per_cycle : float;  (** per core, scalar pipeline *)
  vector_lanes : int;  (** SIMD lanes of the vector pipeline *)
  tensor_macs_per_cycle : float;  (** per core, tensor/matrix unit MACs *)
  dram_gbps : float;
  onchip_gbps : float;  (** shared / NRAM bandwidth *)
  launch_overhead_us : float;
}

type t = {
  id : id;
  name : string;
  interface : string;  (** the programming interface, e.g. "CUDA C" *)
  axes : Axis.t list;
  scopes : Scope.t list;
  intrinsics : Intrin.op list;
  vector_align : int;  (** intrinsic length granularity (elements) *)
  max_axis_extent : (Axis.t * int) list;
  scope_capacity_bytes : (Scope.t * int) list;
  supports_sync : bool;
  cost : cost_params;
}

val cuda : t
val bang : t
val hip : t
val vnni : t
val all : t list
val of_id : id -> t
val id_to_string : id -> string
val id_of_string : string -> id option
val equal_id : id -> id -> bool

val intrinsic_spelling : t -> Intrin.op -> string option
(** Surface name of a unified intrinsic on this platform, when supported. *)

val intrinsic_scope_rule : id -> Intrin.op -> Scope.t * Scope.t list
(** [(dst_scope, src_scopes)] required by the intrinsic on that platform,
    e.g. MLU's [mlp] needs input in NRAM, weights in WRAM, output in NRAM. *)

val default_compute_scope : id -> Scope.t
(** Where intrinsic operands must be staged before computing:
    NRAM on the MLU, Shared on GPUs, Host on the CPU. *)

