open Xpiler_ir
open Xpiler_machine
open Xpiler_ops

(** QiMeng-Xpiler: the neural-symbolic transcompiler (the paper's primary
    contribution, Figure 3).

    Translation is a chain of LLM-assisted transformation passes. Each pass:
    meta-prompt construction (with program annotation when enabled) -> LLM
    transformation -> unit-test validation -> bug localization and SMT-based
    code repairing on failure. Pass sequences come from the per-operator
    retargeting pipelines; a hierarchical auto-tuner (intra-pass brute force
    + inter-pass MCTS) optionally optimizes the accepted translation. *)

type status =
  | Success
  | Degraded
      (** the kernel compiles and computes correctly, but one or more passes
          were skipped with rollback on the escalation ladder — a partial
          success, distinguishable from a broken end state *)
  | Compile_error of string
  | Computation_error of string

type outcome = {
  status : status;
  kernel : Kernel.t option;  (** the final translated kernel *)
  target_text : string option;  (** rendered in the target dialect *)
  specs_applied : Xpiler_passes.Pass.spec list;
  skipped_passes : Xpiler_passes.Pass.spec list;
      (** passes rolled back and planned around (nonempty iff escalation
          reached the skip rung on the surviving plan) *)
  faults_seen : Xpiler_neural.Fault.injected list;  (** everything the oracle injected *)
  residual_faults : Xpiler_neural.Fault.injected list;  (** faults alive in the result *)
  repairs_attempted : int;
  repairs_succeeded : int;
  ledger : Ledger.entry list;
      (** per-pass attempt ledger: escalation rung, fault classes, attempts
          and virtual time charged, in execution order *)
  clock : Xpiler_util.Vclock.t;  (** modelled compile-time breakdown (Figure 8) *)
  throughput : float option;  (** modelled, when translation succeeded *)
  trace : Xpiler_obs.Event.t list;
      (** the translation's trace-event stream when [Config.trace_level]
          enabled tracing for this call; [[]] when tracing is off or when
          events went to an ambient tracer installed by the caller (the
          bench harness's whole-experiment journals) *)
}

val status_to_string : status -> string

val accepted : status -> bool
(** [Success] and [Degraded]: the result compiles and computes correctly. *)

val transcompile :
  ?config:Config.t ->
  src:Platform.id ->
  dst:Platform.id ->
  op:Opdef.t ->
  shape:Opdef.shape ->
  unit ->
  outcome
(** Total: every input ends in a status. A shape with a buffer the unit-test
    oracle cannot allocate ([Unit_test.oversized]) ends as
    [Computation_error] before any pass runs. An exception a callee raises
    (other than [Out_of_memory] and [Sys.Break], which propagate) ends the
    translation as [Compile_error "internal error: <exception>"], with no
    kernel. *)

val complexity_multiplier : Kernel.t -> float
(** Fault-rate multiplier from program size and data-dependent control flow
    (why Deformable Attention is the failure case, §7.6). *)
