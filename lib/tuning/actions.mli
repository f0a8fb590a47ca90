open Xpiler_ir
open Xpiler_machine
module Pass = Xpiler_passes.Pass

(** The inter-pass action space: applicable pass instantiations for a
    program state (the MCTS branching set). All 11 pass families of Table 4
    can appear, and passes may repeat along a path.

    One pre-order walk of the kernel gathers everything the families read
    (the first loops of each shape, allocations, the buffers read and
    written, intrinsics and parallel axes), and the list is built in family
    order until the cap. [Test_support.Naive.enumerate] keeps the
    walk-per-family version it must equal. *)

val enumerate :
  ?buffer_sizes:(string * int) list ->
  Platform.t ->
  Kernel.t ->
  Pass.spec list
(** [buffer_sizes] enables whole-buffer cache actions for kernel parameters
    (sizes are not recoverable from a pointer). At most 14 actions are
    returned, which caps the branching. *)
