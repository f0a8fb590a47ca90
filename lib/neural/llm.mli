open Xpiler_ir
open Xpiler_machine
module Vclock = Xpiler_util.Vclock

(** The simulated code LLM.

    A deterministic-by-seed oracle substituting for GPT-4/o1 (DESIGN.md
    substitution #2): it produces structurally correct output by construction
    (the "sketch" — per Observation #2 LLMs are good at these) and then
    injects low-level faults at the rates of the active [Profile]. All
    downstream machinery — checking, unit tests, localization, SMT repair —
    only sees the faulty program. *)

type t

val create : seed:int -> ?clock:Vclock.t -> unit -> t

type translation =
  | Garbage  (** output is not even parseable in the target dialect *)
  | Translated of Kernel.t * Fault.injected list

val translate_program :
  t ->
  profile:Profile.t ->
  src:Platform.id ->
  dst:Platform.id ->
  op:Xpiler_ops.Opdef.t ->
  shape:Xpiler_ops.Opdef.shape ->
  translation
(** Single-shot whole-program translation (the baselines' mode). The fault
    rates are the profile's scaled by the direction difficulty. *)

val apply_pass :
  t ->
  profile:Profile.t ->
  target:Platform.t ->
  ?prompt:Meta_prompt.t ->
  Xpiler_passes.Pass.spec ->
  Kernel.t ->
  (Kernel.t * Fault.injected list, string) result
(** One LLM-assisted transformation pass (QiMeng-Xpiler's mode): the true
    pass provides the sketch; faults are injected at pass-level rates
    (lower when the program is annotated). [Error] when the pass does not
    apply to this program at all. *)
