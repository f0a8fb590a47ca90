open Xpiler_ir
open Xpiler_machine

(** Meta-prompts (paper §4.2): the per-pass prompt template instantiated for
    a source program — platform-agnostic description, platform-specific
    examples retrieved from the target manual, and optional tuning knobs. *)

type t = {
  pass_name : string;
  agnostic : string;
  examples : string list;  (** retrieved from the target platform's manual *)
  knobs : string option;  (** present for loop split / reorder (Figure 6) *)
  hints : string list;
      (** fault-specific guidance added when re-prompting after a failed
          validation (escalation ladder, rung 1); empty on a first attempt *)
}

val build : target:Platform.id -> Xpiler_passes.Pass.spec -> Kernel.t -> t

val with_hints : categories:Fault.category list -> t -> t
(** The same prompt augmented with one hint per diagnosed fault class. *)

val render : t -> string
