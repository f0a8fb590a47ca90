(** Structured attempt ledger for the resilient pipeline.

    One entry per attempted pass, recording how far up the fault-class
    escalation ladder the pipeline had to climb (hinted re-prompt -> SMT
    repair -> symbolic fallback -> skip-with-rollback), which fault classes
    were diagnosed, how many LLM attempts were spent and how much virtual
    time was charged. Surfaced on [Xpiler.outcome.ledger], as [Obs.Trace]
    instants (["pass.ledger"]) and as a [Report] table. *)

module Pass = Xpiler_passes.Pass
module Fault = Xpiler_neural.Fault

type rung = Validate | Reprompt | Smt | Symbolic | Skip

val rung_index : rung -> int
(** Position on the ladder, [0..4]; higher means more escalation. *)

val rung_name : rung -> string

type result =
  | Applied  (** valid on the first attempt *)
  | Applied_reprompt  (** a hinted re-prompt produced a valid kernel *)
  | Repaired  (** SMT repair fixed the faulty kernel *)
  | Symbolic_applied  (** rewrite-only application, no LLM in the loop *)
  | Skipped  (** rolled back to the checkpoint; pass left out of the plan *)
  | Committed_broken  (** rollback off: the invalid kernel entered the state *)
  | Not_applicable of string

type entry = {
  spec : Pass.spec;
  attempts : int;  (** LLM calls spent on this pass, re-prompts included *)
  rung : rung;  (** highest escalation rung reached *)
  fault_classes : Fault.category list;  (** distinct classes diagnosed, in order *)
  time_charged : float;  (** virtual-clock seconds charged during the pass *)
  result : result;
}

val escalated : entry list -> entry list
(** Entries that climbed past plain validation. *)

val trace_attrs : entry -> (string * string) list
(** The attribute set emitted on the ["pass.ledger"] trace instant. *)

val report : entry list -> Report.t
(** The ledger as an aligned table (same machinery as the bench reports). *)
