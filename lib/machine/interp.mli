open Xpiler_ir
(** Reference interpreter for tensor-program kernels.

    Executes a kernel with full numerical semantics. SIMT thread groups
    (threadIdx.* / coreId parallel loops) run as cooperating fibers built on
    OCaml effect handlers: all fibers of a group advance to the next [Sync]
    barrier before any continues, so cooperative shared-memory tiling
    executes exactly as on hardware. Within a round, fibers run in *reverse*
    thread order, which deterministically exposes missing-barrier races as
    stale reads instead of letting in-order execution hide them.

    Block-level axes (blockIdx.*, taskId, clusterId) carry no barrier on real
    hardware and run as ordinary sequential loops.

    Outcomes map onto the paper's metrics: raising [Runtime_error] (out of
    bounds, unbound name, fuel exhausted, division by zero) means the
    translated kernel fails its unit test.

    [run] executes through {!Compile}: the kernel is lowered
    once into OCaml closures over slot-indexed frames (memoized on the
    kernel's structural hash) and then executed without walking the statement
    tree. {!run_tree} keeps the direct tree-walker; the differential
    property in [test/test_fuzz.ml] holds both engines to identical outputs,
    stats and error messages. *)

exception Runtime_error of string

type arg = Compile.arg = Buf of Tensor.t | Scalar_int of int | Scalar_float of float

type stats = Compile.stats = {
  mutable steps : int;  (** executed statements *)
  mutable stores : int;
  mutable intrinsic_elems : int;  (** elements processed by intrinsics *)
  mutable memcpy_elems : int;
  mutable barriers : int;
}

val run :
  ?fuel:int ->
  ?trace:(string -> int -> float -> unit) ->
  Kernel.t ->
  (string * arg) list ->
  stats
(** [run kernel args] executes the kernel, mutating the [Buf] arguments in
    place. [args] must bind every kernel parameter. [trace], when given, is
    called as [trace buf index value] on every scalar store (not on bulk
    memcpy/intrinsic writes); the differential engine tests compare store
    sequences with it. [fuel] bounds executed statements (default 200M). *)

type receipt = Compile.receipt = {
  stats : stats;
  traffic : (string * int) list option;
      (** per-buffer written elements, sorted by buffer; [None] when the run
          was not traced *)
  error : string option;  (** the [Runtime_error] message that ended the run *)
}

val run_receipt : ?fuel:int -> Kernel.t -> (string * arg) list -> receipt
(** [run] that returns what the run emitted to the ambient tracer — its
    stats and, when traced, its per-buffer traffic — with a runtime error
    raised during execution in the receipt instead of raised.
    Argument-binding errors still raise [Runtime_error] (they emit
    nothing). *)

val replay : receipt -> unit
(** Emit a receipt's [interp.*] counts to the ambient tracer: the same
    events the recorded run emitted, when the receipt carries traffic. A
    no-op when tracing is off. *)

val run_tree :
  ?fuel:int ->
  ?trace:(string -> int -> float -> unit) ->
  Kernel.t ->
  (string * arg) list ->
  stats
(** The tree-walking reference engine, same contract as {!run}. Kept as the
    baseline for differential testing and for the evaluation-engine
    benchmark; not memoized. *)
