(** Transcompiler configurations, including the paper's ablations. *)

(** One rung of the recovery ladder a pass climbs when its output fails
    validation. The ledger rung and the [xpiler_escalations_total] label a
    rung books are given in brackets. *)
type rung =
  | Reprompt
      (** Re-prompt with a hint naming the diagnosed fault classes, which
          damps exactly those classes' rates. The budget is per fault class,
          and each retry pays a growing virtual-clock backoff. [reprompt] *)
  | Self_debug
      (** One flat resample with no hint: the paper's Self-Debugging
          ablation. Most draws reproduce the fault and hand on to the next
          rung without a call. Books no rung of its own. *)
  | Smt_repair  (** SMT-based code repairing (Algorithm 3). [smt-repair] *)
  | Symbolic
      (** Rewrite-only pass application on the checkpoint: slower in the
          modelled clock and inflexible, but no LLM in the loop. [symbolic] *)
  | Rollback
      (** Restore the last validated checkpoint and skip the pass; the
          remaining plan runs around it and the outcome is [Degraded]. [skip] *)

type t = {
  name : string;
  seed : int;
  annotate : bool;  (** program annotation (Algorithm 1) *)
  static_analysis : bool;  (** IR-level static pre-validation before unit tests *)
  ladder : rung list;
      (** the rungs a pass whose output fails validation climbs, in order. A
          pass that runs off the end commits its broken kernel to pipeline
          state (the error-accumulation failure mode), so only a ladder
          ending in [Rollback] never commits a kernel that failed
          validation *)
  fault_scale : float;
      (** multiplier on the neural oracle's fault-injection rates (1.0 =
          calibrated paper rates); the resilience tests and bench elevate it
          to make validation failures common *)
  tune : bool;  (** hierarchical auto-tuning for performance *)
  mcts : Xpiler_tuning.Mcts.config;
  tuning_prune : bool;
      (** Ignored: the intra-pass tuner prunes nothing, and [mcts.prune],
          which [e2ebench/layers.ml] sets from this field, is ignored too.
          It is kept only because [e2ebench/layers.ml] reads it; drop the
          two together. *)
  tuning_warm_start : bool;
      (** Ignored: no search warm-starts from a schedule database. It is
          kept only because [e2ebench/layers.ml] reads it; drop the two
          together. *)
  unit_test_trials : int;
      (** trials of [finalize]'s unit test, the final acceptance check (and
          of the check on a tuned kernel). Per-pass validation always runs
          one trial *)
  jobs : int;
      (** Ignored: nothing reads this field. It is kept only because
          [e2ebench/sweep.ml] sets it; drop the two together. *)
  trace_level : Xpiler_obs.Tracer.level;
      (** [Off]: no tracing. [Detail]: record a per-translation event
          stream, returned in [Xpiler.outcome.trace]. *)
  trace_sink : string option;
      (** When set (and [trace_level <> Off]), the JSONL journal is also
          written to this path at the end of the translation. A path that
          cannot be written is a warning on stderr, not a failure. *)
  profile : bool;
      (** Ignored: the wall-clock profiler ([Obs.Prof]) is always on. It is
          kept only because [e2ebench/sweep.ml] sets it; drop the two
          together. *)
  native_backend : bool;
      (** Ignored: nothing reads this field. It is kept only because
          [e2ebench/sweep.ml] sets it; drop the two together. *)
  store_dir : string option;
      (** Ignored: no tuner state outlives a translation. It is kept only
          because [e2ebench/sweep.ml] sets it; drop the two together. *)
}

val default : t
(** Full QiMeng-Xpiler (annotation + the ladder [Reprompt; Smt_repair;
    Symbolic; Rollback]), tuning off — the accuracy experiments' setting. *)

val seed_pipeline : t
(** The pre-resilience pipeline, ladder [[Smt_repair]]: when repair gives up
    the broken kernel is committed to pipeline state (the error-accumulation
    failure mode). The baseline arm of the resilience bench. *)

val without_smt : t
(** "QiMeng-Xpiler w/o SMT" ablation: an empty ladder. *)

val without_analysis : t
(** Static pre-validation disabled: every pass goes straight to the target
    checker and the interpreter-based unit test, and repairs pay full
    dynamic localization. *)

val without_smt_self_debug : t
(** "QiMeng-Xpiler w/o SMT + Self-Debugging" ablation: ladder [[Self_debug]]. *)

val tuned : t
(** Full system with hierarchical auto-tuning (the performance experiments'
    setting); MCTS budget reduced from the paper's 512 simulations to keep
    simulated runs fast — the knob is exposed. *)

val with_seed : t -> int -> t

val with_trace : ?sink:string -> t -> Xpiler_obs.Tracer.level -> t
(** Enable tracing, optionally journaling to [sink] (a JSONL path). *)

val with_fault_scale : t -> float -> t
(** Scale the simulated LLM's fault-injection rates (clamped to >= 0). *)

val with_max_escalation : t -> int -> t
(** [with_max_escalation t n] keeps the rungs of [t.ladder] whose level is
    at most [n]: 0 validate-only, 1 +[Reprompt], 2 +[Smt_repair] or
    [Self_debug], 3 +[Symbolic], 4 +[Rollback]. It never adds a rung
    [t.ladder] lacks. *)
