open Xpiler_ir
open Xpiler_ops

(** PPCG-like polyhedral C -> CUDA auto-parallelization.

    PPCG extracts a static control part (SCoP) and schedules it onto the
    GPU. Our model accepts programs that are fully affine with simple
    reduction idioms; it bails out — as the real tool does on legacy code —
    when control flow is data-dependent, an index is non-affine, or scalar
    temporaries flow across sibling statements in ways the SCoP detection
    cannot privatize (the softmax/layernorm pattern). Accepted programs are
    parallelized by binding the outer loop nest to the CUDA grid. *)

type result = {
  accepted : bool;  (** a SCoP was extracted *)
  reason : string option;  (** why extraction failed *)
  kernel : Kernel.t option;
  compiles : bool;
  computes : bool;
}

val translate : Opdef.t -> Opdef.shape -> result
(** Translate the operator's plain-C (sequential) kernel to CUDA. *)
