(** The fast evaluation engine: one-shot lowering of a kernel into OCaml
    closures over slot-indexed frames.

    Variable and buffer names are resolved to array slots at compile time, so
    execution never walks an association list or the statement tree. The
    numerical semantics, error messages, statistics accounting, fuel
    discipline and SIMT fiber scheduling are byte-for-byte those of the
    tree-walking reference interpreter — {!Interp.run} compiles and runs,
    and [test/test_fuzz.ml] checks the two engines differentially.

    A perfect affine nest — a loop whose body is a chain of single loops
    ending in one float store or one float-slot update that is a MAC [acc
    = acc + a[i] * b[j]] or a fold [x = x op a[i]], with inner bounds fixed
    at entry and every index linear in the counters — runs as nested OCaml
    loops. So does a loop of reduction rows: a loop whose body is a
    non-empty straight-line block of float lets, float stores, float-slot
    assignments, [Alloc]s of float tensors and such nests, as in [for j
    { acc = 0; for p { acc += a * b }; out[j] = acc }]. Its iterations
    run as one lowered program each, and its nests as OCaml loops. Either
    loop runs so only when one check at its entry proves no iteration can
    fail; otherwise its statements run one at a time, and a nest in its
    body keeps its own check. A store [d[f] = d[f] + e] whose index stays
    put in the inner levels, and whose [e] is a MAC or fold operand, is
    reduced in a float slot when nothing else in the nest touches [d]'s
    tensor. Either way the run has the same outputs, statistics and
    errors.

    Every float value, in a lowered loop or not, is a postfix program over
    the frame's float slots, compiled by one emitter; a subexpression
    whose type is known only at bind time, such as arithmetic over loads
    of a parameter tensor or a scalar parameter, is evaluated boxed and
    converted.

    A variable that only ever holds floats gets an unboxed float slot; a
    load from a buffer name that only float [Alloc]s bind, and no parameter
    has, counts as a float for that, so [mx = s[0]] over a float scratch
    tensor is a float slot.

    A run's frame owns its scratch: an [Alloc] executed again zero-fills and
    keeps the tensor it made before in the same frame, and a thread chain
    whose body contains no [Sync] runs its threads one after another, in
    thread order (the order its fibers would run), in a private frame
    instead of as fibers. Its spawn-time errors are still raised before any
    thread body runs. A one-level chain among those (its body is not a
    thread loop) that assigns no variable bound outside it is the serial
    loop it equals and compiles as one, so it lowers like any loop: as a
    nest level, or as a nest in a loop of rows.

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
  mutable lowered : int;  (** entries of lowered loops whose check passed *)
}

(** {1 Shared runtime — used by the tree-walking reference interpreter} *)

val to_float : value -> float
val to_int : value -> int
val truthy : value -> bool
val err : ('a, unit, string, 'b) format4 -> 'a
val buf_get : Tensor.t -> string -> int -> float
val buf_set : Tensor.t -> string -> int -> float -> unit
val int_binop : Expr.binop -> int -> int -> value
val float_binop : Expr.binop -> float -> float -> value
val unop : Expr.unop -> value -> value

type _ Effect.t += Barrier : unit Effect.t

val run_fiber_group : (unit -> unit) list -> unit
(** Runs SIMT fibers round-robin between barriers: round 1 in thread order,
    each later round in the reverse of the round before. A missing barrier
    shows deterministically as a read of a later thread's element before
    that thread has written it. *)

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
  error : string option;  (** the [Runtime_error] message that ended the run *)
  lowered : int;
      (** how many times a lowered loop passed its entry check and ran as
          OCaml loops (see {!compile}) *)
}
(** What one execution did: its counts and how it ended. The engines emit
    nothing; a caller that meters runs (the unit-test oracle, the repair
    localizer) keeps the receipt and meters it, once per run it owns. *)

(** {1 The compiler} *)

type t
(** A compiled kernel. *)

val compile : Kernel.t -> t
(** Lower a kernel. Nothing is memoized here: {!Interp.run} compiles on
    every call, and the unit-test oracle's verdict memo is what spares a
    re-tested kernel its compile and run. *)

val run : ?fuel:int -> ?trace:(string -> int -> float -> unit) -> t -> (string * arg) list -> stats
(** Same contract as [Interp.run]. *)

val run_receipt :
  ?fuel:int -> ?trace:(string -> int -> float -> unit) -> t -> (string * arg) list -> receipt
(** [run], with a [Runtime_error] raised during execution returned in the
    receipt instead; argument-binding errors still raise (nothing ran). *)
