open Xpiler_ir

(** Analytical roofline cost model.

    Converts a scheduled kernel into an execution-time estimate on a
    platform. The model walks the loop nest with symbolic trip counts and
    accumulates: scalar arithmetic, vector-intrinsic elements, tensor-unit
    MACs, off-chip traffic (direct global loads/stores plus global-side
    memcpys) and on-chip traffic. Time is compute vs. memory roofline with
    an overlap bonus for software-pipelined loops.

    The model deliberately responds to exactly the schedule features the
    paper's transformation passes manipulate — parallel binding (occupancy),
    caching (traffic reduction), tensorization (tensor vs. scalar pipes),
    pipelining (overlap), tiling (per-iteration footprint) — so pass/knob
    choices change the estimate the way they change real execution time.

    The auto-tuner scores every candidate with {!throughput}, so the walk
    is written to allocate nothing per statement or expression: one call
    allocates only the walk's state and its result. *)

type features = {
  scalar_flops : float;
  vector_elems : float;
  tensor_macs : float;
  offchip_bytes : float;
  onchip_bytes : float;
  blocks : int;  (** block-level parallel iterations (grid / tasks) *)
  threads : int;  (** thread-level parallel iterations per block *)
  pipelined : bool;
  launches : int;
}

type estimate = {
  seconds : float;
  compute_seconds : float;
  memory_seconds : float;
  features : features;
}

val extract_features : Kernel.t -> shapes:(string * int) list -> features
(** [shapes] binds the kernel's scalar parameters (problem sizes). *)

val estimate : Platform.t -> Kernel.t -> shapes:(string * int) list -> estimate
(** Emits no trace events, like every function here: the pipeline meters
    the one estimate it makes for a translation's final kernel. *)

val throughput : Platform.t -> Kernel.t -> shapes:(string * int) list -> float
(** The auto-tuner's reward (Equations 3-4 of the paper): inverse modelled
    execution time, scaled to an ops/s-like magnitude. *)

val throughput_of : estimate -> float
(** {!throughput} of an estimate already made. *)
