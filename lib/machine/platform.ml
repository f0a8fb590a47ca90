open Xpiler_ir
type id = Cuda | Bang | Hip | Vnni

type cost_params = {
  clock_ghz : float;
  num_cores : int;
  threads_per_core : int;
  scalar_flops_per_cycle : float;
  vector_lanes : int;
  tensor_macs_per_cycle : float;
  dram_gbps : float;
  onchip_gbps : float;
  launch_overhead_us : float;
}

type t = {
  id : id;
  name : string;
  interface : string;
  axes : Axis.t list;
  scopes : Scope.t list;
  intrinsics : Intrin.op list;
  vector_align : int;
  max_axis_extent : (Axis.t * int) list;
  scope_capacity_bytes : (Scope.t * int) list;
  supports_sync : bool;
  cost : cost_params;
}

let simt_axes =
  [ Axis.Block_x; Axis.Block_y; Axis.Block_z; Axis.Thread_x; Axis.Thread_y; Axis.Thread_z ]

(* Modelled after NVIDIA A100: 108 SMs, 1.41 GHz, 312 TF/s tensor,
   19.5 TF/s fp32, 1555 GB/s HBM2e. *)
let cuda =
  { id = Cuda;
    name = "NVIDIA A100 GPU with Tensor Core";
    interface = "CUDA C";
    axes = simt_axes;
    scopes = [ Scope.Global; Scope.Shared; Scope.Local; Scope.Fragment ];
    intrinsics = [ Intrin.Mma; Intrin.Dp4a ];
    vector_align = 1;
    max_axis_extent =
      [ (Axis.Block_x, 2147483647); (Axis.Block_y, 65535); (Axis.Block_z, 65535);
        (Axis.Thread_x, 1024); (Axis.Thread_y, 1024); (Axis.Thread_z, 64) ];
    scope_capacity_bytes = [ (Scope.Shared, 164 * 1024); (Scope.Local, 64 * 1024) ];
    supports_sync = true;
    cost =
      { clock_ghz = 1.41;
        num_cores = 108;
        threads_per_core = 2048;
        scalar_flops_per_cycle = 128.0;
        vector_lanes = 32;
        tensor_macs_per_cycle = 1024.0;
        dram_gbps = 1555.0;
        onchip_gbps = 19400.0;
        launch_overhead_us = 4.0
      }
  }

(* Modelled after AMD MI200 family: 110 CUs, 1.7 GHz, 383 TF/s matrix fp16,
   47.9 TF/s fp32, 1638 GB/s HBM2e. *)
let hip =
  { id = Hip;
    name = "AMD MI200 with Matrix Core";
    interface = "HIP";
    axes = simt_axes;
    scopes = [ Scope.Global; Scope.Shared; Scope.Local; Scope.Fragment ];
    intrinsics = [ Intrin.Mma; Intrin.Dp4a ];
    vector_align = 1;
    max_axis_extent =
      [ (Axis.Block_x, 2147483647); (Axis.Block_y, 65535); (Axis.Block_z, 65535);
        (Axis.Thread_x, 1024); (Axis.Thread_y, 1024); (Axis.Thread_z, 64) ];
    scope_capacity_bytes = [ (Scope.Shared, 64 * 1024); (Scope.Local, 64 * 1024) ];
    supports_sync = true;
    cost =
      { clock_ghz = 1.7;
        num_cores = 110;
        threads_per_core = 2048;
        scalar_flops_per_cycle = 256.0;
        vector_lanes = 64;
        tensor_macs_per_cycle = 512.0;
        dram_gbps = 1638.0;
        onchip_gbps = 17000.0;
        launch_overhead_us = 5.0
      }
  }

(* Modelled after a Cambricon MLU370-class device: multi-core SIMD DSA with
   per-core NRAM (768 KB) and WRAM (512 KB), large-granularity vector and
   matrix intrinsics. *)
let bang =
  { id = Bang;
    name = "Cambricon MLU";
    interface = "BANG C";
    axes = [ Axis.Task_id; Axis.Cluster_id; Axis.Core_id ];
    scopes = [ Scope.Global; Scope.Shared; Scope.Nram; Scope.Wram; Scope.Local ];
    intrinsics =
      [ Intrin.Vec_add; Intrin.Vec_sub; Intrin.Vec_mul; Intrin.Vec_max; Intrin.Vec_min;
        Intrin.Vec_exp; Intrin.Vec_log; Intrin.Vec_sqrt; Intrin.Vec_recip; Intrin.Vec_tanh;
        Intrin.Vec_erf; Intrin.Vec_relu; Intrin.Vec_sigmoid; Intrin.Vec_gelu;
        Intrin.Vec_sign; Intrin.Vec_scale; Intrin.Vec_adds; Intrin.Vec_fill;
        Intrin.Vec_copy; Intrin.Vec_reduce_sum; Intrin.Vec_reduce_max; Intrin.Mlp;
        Intrin.Conv2d ];
    vector_align = 64;
    max_axis_extent = [ (Axis.Task_id, 65536); (Axis.Cluster_id, 8); (Axis.Core_id, 4) ];
    scope_capacity_bytes =
      [ (Scope.Nram, 768 * 1024); (Scope.Wram, 512 * 1024); (Scope.Shared, 4 * 1024 * 1024) ];
    supports_sync = true;
    cost =
      { clock_ghz = 1.3;
        num_cores = 16;
        threads_per_core = 1;
        scalar_flops_per_cycle = 2.0;
        vector_lanes = 128;
        tensor_macs_per_cycle = 2048.0;
        dram_gbps = 614.0;
        onchip_gbps = 6000.0;
        launch_overhead_us = 8.0
      }
  }

(* Modelled after Intel Xeon Gold 6348 (Ice Lake, DL Boost/VNNI): 28 cores,
   2.6 GHz, AVX-512 with VNNI int8 dot products. *)
let vnni =
  { id = Vnni;
    name = "Intel DL Boost CPU";
    interface = "C with VNNI extensions";
    axes = [];
    scopes = [ Scope.Host; Scope.Local ];
    intrinsics =
      [ Intrin.Vec_add; Intrin.Vec_sub; Intrin.Vec_mul; Intrin.Vec_max; Intrin.Vec_min;
        Intrin.Vec_fill; Intrin.Vec_copy; Intrin.Vec_reduce_sum; Intrin.Vec_reduce_max;
        Intrin.Dp4a ];
    vector_align = 16;
    max_axis_extent = [];
    scope_capacity_bytes = [ (Scope.Local, 48 * 1024) ];
    supports_sync = false;
    cost =
      { clock_ghz = 2.6;
        num_cores = 28;
        threads_per_core = 1;
        scalar_flops_per_cycle = 4.0;
        vector_lanes = 16;
        tensor_macs_per_cycle = 128.0;
        dram_gbps = 204.0;
        onchip_gbps = 2000.0;
        launch_overhead_us = 0.5
      }
  }

let all = [ cuda; bang; hip; vnni ]
let of_id = function Cuda -> cuda | Bang -> bang | Hip -> hip | Vnni -> vnni

let id_to_string = function
  | Cuda -> "cuda"
  | Bang -> "bang"
  | Hip -> "hip"
  | Vnni -> "vnni"

let id_of_string = function
  | "cuda" -> Some Cuda
  | "bang" -> Some Bang
  | "hip" -> Some Hip
  | "vnni" | "c" -> Some Vnni
  | _ -> None

let equal_id (a : id) (b : id) = a = b

let intrinsic_spelling t op =
  if not (List.mem op t.intrinsics) then None
  else
    let name =
      match (t.id, op) with
      | Cuda, Intrin.Mma -> "wmma::mma_sync"
      | Cuda, Intrin.Dp4a -> "__dp4a"
      | Hip, Intrin.Mma -> "__builtin_amdgcn_mfma_f32_16x16x4f32"
      | Hip, Intrin.Dp4a -> "__builtin_amdgcn_sdot4"
      | Bang, op -> (
        match op with
        | Intrin.Mlp -> "__bang_mlp"
        | Intrin.Conv2d -> "__bang_conv"
        | Intrin.Vec_add -> "__bang_add"
        | Intrin.Vec_sub -> "__bang_sub"
        | Intrin.Vec_mul -> "__bang_mul"
        | Intrin.Vec_max -> "__bang_maximum"
        | Intrin.Vec_min -> "__bang_minimum"
        | Intrin.Vec_exp -> "__bang_active_exp"
        | Intrin.Vec_log -> "__bang_active_log"
        | Intrin.Vec_sqrt -> "__bang_active_sqrt"
        | Intrin.Vec_recip -> "__bang_active_recip"
        | Intrin.Vec_tanh -> "__bang_active_tanh"
        | Intrin.Vec_erf -> "__bang_active_erf"
        | Intrin.Vec_relu -> "__bang_active_relu"
        | Intrin.Vec_sigmoid -> "__bang_active_sigmoid"
        | Intrin.Vec_gelu -> "__bang_active_gelu"
        | Intrin.Vec_sign -> "__bang_active_sign"
        | Intrin.Vec_scale -> "__bang_mul_scalar"
        | Intrin.Vec_adds -> "__bang_add_scalar"
        | Intrin.Vec_fill -> "__bang_write_value"
        | Intrin.Vec_copy -> "__bang_move"
        | Intrin.Vec_reduce_sum -> "__bang_reduce_sum"
        | Intrin.Vec_reduce_max -> "__bang_reduce_max"
        | Intrin.Mma | Intrin.Dp4a -> "__bang_unsupported")
      | Vnni, op -> (
        match op with
        | Intrin.Dp4a -> "_mm512_dpbusd_epi32"
        | Intrin.Vec_add -> "_mm512_add_ps"
        | Intrin.Vec_sub -> "_mm512_sub_ps"
        | Intrin.Vec_mul -> "_mm512_mul_ps"
        | Intrin.Vec_max -> "_mm512_max_ps"
        | Intrin.Vec_min -> "_mm512_min_ps"
        | Intrin.Vec_fill -> "_mm512_set1_ps"
        | Intrin.Vec_copy -> "_mm512_loadu_ps"
        | Intrin.Vec_reduce_sum -> "_mm512_reduce_add_ps"
        | Intrin.Vec_reduce_max -> "_mm512_reduce_max_ps"
        | _ -> "_mm512_unsupported")
      | (Cuda | Hip), _ -> "unsupported"
    in
    Some name

let intrinsic_scope_rule id op =
  match (id, op) with
  | Bang, Intrin.Mlp -> (Scope.Nram, [ Scope.Nram; Scope.Wram ])
  | Bang, Intrin.Conv2d -> (Scope.Nram, [ Scope.Nram; Scope.Wram ])
  | Bang, _ -> (Scope.Nram, [ Scope.Nram; Scope.Nram ])
  | (Cuda | Hip), Intrin.Mma -> (Scope.Fragment, [ Scope.Fragment; Scope.Fragment ])
  | (Cuda | Hip), Intrin.Dp4a ->
    (* the array form stands for per-thread register dot products over
       global data *)
    (Scope.Global, [ Scope.Global; Scope.Global ])
  | (Cuda | Hip), _ -> (Scope.Local, [ Scope.Local; Scope.Local ])
  | Vnni, _ -> (Scope.Host, [ Scope.Host; Scope.Host ])

let default_compute_scope = function
  | Bang -> Scope.Nram
  | Cuda | Hip -> Scope.Shared
  | Vnni -> Scope.Host

