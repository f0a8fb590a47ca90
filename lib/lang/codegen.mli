open Xpiler_ir

(** Dialect back-ends: IR kernel -> source text.

    The generator peels the outer parallel-loop nest back into implicit
    built-ins (emitting a [#launch] pragma that records the grid), re-homes
    hoisted shared allocations as in-kernel declarations, and spells every
    intrinsic, qualifier and barrier in the dialect's surface syntax.
    [Parser.parse] of the produced text yields a structurally equal kernel
    for well-formed programs. *)

val emit : Dialect.t -> Kernel.t -> string

val lines_of_code : string -> int
(** Non-blank, non-comment-only source lines; used by the productivity
    experiment (Table 8) and the benchmark inventory (Table 5). *)
