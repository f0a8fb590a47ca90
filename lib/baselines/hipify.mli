open Xpiler_ir
open Xpiler_ops

(** HIPIFY-like rule-based CUDA -> HIP migration.

    A mechanical spelling translator: grid built-ins, qualifiers and barrier
    calls map one-to-one. Like the real tool, it has no rules for
    tensor-core constructs (wmma fragments / mma_sync), so kernels using the
    tensor core come out untranslated and fail HIP compilation — the gap the
    paper's Table 7 reports. *)

type result = {
  hip_text : string;
  kernel : Kernel.t option;  (** present when the output parses as HIP *)
  compiles : bool;
  computes : bool;
}

val translate : Opdef.t -> Opdef.shape -> result
(** Translate the operator's idiomatic CUDA source. *)
