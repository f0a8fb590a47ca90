open Xpiler_ir
open Xpiler_machine

(** Idiomatic per-platform source programs, derived from each operator's
    canonical sequential kernel through golden pass pipelines (split/bind for
    SIMT grids; split/bind + NRAM/WRAM staging + tensorize for the MLU;
    AVX-style tensorization for the VNNI CPU).

    Every produced kernel passes the target platform's checker and the
    operator's unit test; when a pipeline step fails on a particular shape
    (e.g. a misaligned extent) the builder falls back to a simpler but valid
    idiom, ending at the plain sequential kernel. *)

val source : Platform.id -> Opdef.t -> Opdef.shape -> Kernel.t

val source_text : Platform.id -> Opdef.t -> Opdef.shape -> string
(** The idiomatic kernel rendered in the platform's surface dialect. *)

val pipelines_for :
  Platform.id -> Opdef.t -> Opdef.shape -> Kernel.t -> Xpiler_passes.Pass.spec list list
(** Candidate pass sequences for retargeting an arbitrary (e.g. just
    sequentialized) kernel of this operator, preferred first, ending with
    conservative fallbacks. Loop names are derived from the kernel itself. *)
