(** The fast evaluation engine: one-shot lowering of a kernel into OCaml
    closures over slot-indexed frames.

    Variable and buffer names are resolved to array slots at compile time, so
    execution never walks an association list or the statement tree. The
    numerical semantics, error messages, statistics accounting, fuel
    discipline and SIMT fiber scheduling are byte-for-byte those of the
    tree-walking reference interpreter — {!Interp.run} is a thin wrapper over
    {!cached}, and [test/test_fuzz.ml] checks the two engines differentially.

    This module also owns the runtime pieces both engines share (value and
    statistics types, scalar operators, intrinsic semantics, the barrier
    effect and the fiber scheduler), so the engines cannot drift apart. *)

open Xpiler_ir

exception Runtime_error of string
(** Raised for dynamic errors: out-of-bounds accesses, unbound names,
    division by zero, fuel exhaustion, negative extents, argument-binding
    mismatches. *)

type arg = Buf of Tensor.t | Scalar_int of int | Scalar_float of float

type stats = {
  mutable steps : int;
  mutable stores : int;
  mutable intrinsic_elems : int;
  mutable memcpy_elems : int;
  mutable barriers : int;
}

type value = I of int | F of float

type ctx = {
  stats : stats;
  fuel : int;
  trace : (string -> int -> float -> unit) option;
  traffic : (string, int) Hashtbl.t option;
      (** per-buffer written elements, tallied only when profiling *)
}

(** {1 Shared runtime — used by the tree-walking reference interpreter} *)

val to_float : value -> float
val to_int : value -> int
val truthy : value -> bool
val err : ('a, unit, string, 'b) format4 -> 'a
val tally : ctx -> string -> int -> unit
val buf_get : Tensor.t -> string -> int -> float
val buf_set : Tensor.t -> string -> int -> float -> unit
val int_binop : Expr.binop -> int -> int -> value
val float_binop : Expr.binop -> float -> float -> value
val unop : Expr.unop -> value -> value

type _ Effect.t += Barrier : unit Effect.t

val is_thread_axis : Axis.t -> bool

val run_fiber_group : (unit -> unit) list -> unit
(** Runs SIMT fibers round-robin between barriers, reversing order each
    round to deterministically expose missing-barrier races. *)

val intrinsic_exec :
  stats ->
  name:string ->
  op:Intrin.op ->
  dst_t:Tensor.t ->
  dname:string ->
  dst_off:int ->
  srcs:(Tensor.t * string * int) array ->
  params:int array ->
  fparam:(unit -> float) ->
  unit
(** Execute one intrinsic against already-evaluated operands. [fparam]
    re-evaluates the second parameter as a float (for
    [Vec_scale]/[Vec_adds]/[Vec_fill]); it must raise
    ["%s: no scalar"] when absent. *)

val fresh_stats : unit -> stats

(** {1 Run receipts} *)

type receipt = {
  stats : stats;
  traffic : (string * int) list option;
      (** per-buffer written elements, sorted by buffer; [None] when the run
          was not traced *)
  error : string option;  (** the [Runtime_error] message that ended the run *)
}
(** What one execution emitted to the ambient tracer, so a memoized result
    can emit it again. *)

val traffic_list : (string, int) Hashtbl.t option -> (string * int) list option

val profile : stats -> (string * int) list option -> unit
(** Emit a run's [interp.*] counts to the ambient tracer (a no-op when
    tracing is off). *)

val replay : receipt -> unit
(** [profile] of a receipt: exactly what the recorded run emitted, when the
    receipt carries traffic. *)

(** {1 The compiler} *)

type t
(** A compiled kernel. *)

val compile : Kernel.t -> t

val run : ?fuel:int -> ?trace:(string -> int -> float -> unit) -> t -> (string * arg) list -> stats
(** Same contract as [Interp.run]. *)

val run_receipt :
  ?fuel:int -> ?trace:(string -> int -> float -> unit) -> t -> (string * arg) list -> receipt
(** [run], with a [Runtime_error] raised during execution returned in the
    receipt instead; argument-binding errors still raise (they emit
    nothing). *)

val cached : Kernel.t -> t
(** Thread-safe LRU memo of [compile] (4096 entries), keyed by the
    structural [Kernel.hash]/[equal]; the tuner and the unit-test oracle
    re-execute the same candidate kernels many times, so this makes
    compilation cost amortize to zero. *)
