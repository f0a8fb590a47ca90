open Xpiler_ir
(** Reference interpreter for tensor-program kernels.

    Executes a kernel with full numerical semantics. SIMT thread groups
    (threadIdx.* / coreId parallel loops) run as cooperating fibers built on
    OCaml effect handlers: all fibers of a group advance to the next [Sync]
    barrier before any continues, so cooperative shared-memory tiling
    executes exactly as on hardware. Round 1 runs the fibers in thread
    order and each later round in the reverse of the round before, so a
    4-thread kernel with one barrier runs threads 0..3, then 3..0. Without
    a barrier each thread runs to completion before the next one starts, so
    a missing barrier shows deterministically as a stale read of a later
    thread's element. A chain whose body contains no [Sync] runs its
    threads in the same order without fibers (see {!Compile}).

    Block-level axes (blockIdx.*, taskId, clusterId) carry no barrier on real
    hardware and run as ordinary sequential loops.

    Outcomes map onto the paper's metrics: raising [Runtime_error] (out of
    bounds, unbound name, fuel exhausted, division by zero) means the
    translated kernel fails its unit test.

    [run] executes through {!Compile}: each call lowers the kernel into
    OCaml closures over slot-indexed frames (nothing is memoized here; the
    unit-test oracle memoizes whole trials) and then executes them without
    walking the statement tree. Every run counts one compile in
    [xpiler_compile_cache_lookups_total{result="miss"}], a name kept for
    the e2ebench layer attribution. Every float value (a float [let], an
    assignment to a float variable, a store's value, an intrinsic's scalar)
    runs as one postfix program over unboxed float slots, so a float
    statement run one at a time allocates nothing for the floats it
    computes. A perfect affine nest ending in a
    single float store or float-slot update, and a loop of reduction rows
    (a straight-line block of float statements and such nests), each run
    as range-checked OCaml loops, unless a [trace] hook is given or the
    loop's entry check fails. An [Alloc] executed
    again zero-fills the tensor it made before, and a thread chain without
    a [Sync] runs without fibers; if it has one level and assigns no
    variable bound outside it, it runs as a serial loop and lowers with
    the loops around it. {!run_tree} keeps the
    direct tree-walker; the differential property in [test/test_fuzz.ml]
    holds both engines to identical outputs, stats and error messages, with
    and without a trace hook. *)

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
  error : string option;  (** the [Runtime_error] message that ended the run *)
  lowered : int;  (** entries of lowered loops whose check passed *)
}

val run_receipt : ?fuel:int -> Kernel.t -> (string * arg) list -> receipt
(** [run] that returns the run's stats, with a runtime error raised during
    execution in the receipt instead of raised. Argument-binding errors
    still raise [Runtime_error] (nothing ran). Neither engine emits trace
    events: a caller that owns a run meters its receipt. *)

val run_tree :
  ?fuel:int ->
  ?trace:(string -> int -> float -> unit) ->
  Kernel.t ->
  (string * arg) list ->
  stats
(** The tree-walking reference engine, same contract as {!run}. Kept as the
    baseline for differential testing and for the evaluation-engine
    benchmark. *)
