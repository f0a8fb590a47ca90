(** Transcompiler configurations, including the paper's ablations. *)

type escalation = {
  reprompt_parallelism : int;
      (** re-prompt budget when the diagnosed fault class is parallelism *)
  reprompt_memory : int;  (** … memory (scopes, staging, indices) *)
  reprompt_instruction : int;  (** … instruction (intrinsics, bounds, params) *)
  reprompt_damping : float;
      (** per-retry multiplier on the hinted fault classes' rates (a
          fault-specific hint makes exactly those errors less likely) *)
  backoff : float;
      (** virtual-clock backoff base: retry [i] charges an extra
          [45 * backoff^i] modelled seconds of LLM latency *)
  symbolic_fallback : bool;
      (** rung 3: rewrite-only pass application, no LLM in the loop *)
}

val no_escalation : escalation
(** Every rung disabled — the pre-resilience behaviour. *)

val default_escalation : escalation

type t = {
  name : string;
  seed : int;
  annotate : bool;  (** program annotation (Algorithm 1) *)
  use_smt : bool;  (** SMT-based code repairing (Algorithm 3) *)
  self_debugging : bool;  (** legacy flat retry of a failed pass (ablation) *)
  static_analysis : bool;  (** IR-level static pre-validation before unit tests *)
  escalation : escalation;
      (** fault-class escalation ladder for a pass whose output fails
          validation: hinted re-prompt -> SMT repair -> symbolic fallback ->
          skip-with-rollback *)
  rollback : bool;
      (** never commit a kernel that failed validation: when the whole ladder
          is exhausted, roll the pass back to the last validated checkpoint
          and re-plan around it (outcome becomes [Degraded], not broken) *)
  fault_scale : float;
      (** multiplier on the neural oracle's fault-injection rates (1.0 =
          calibrated paper rates); the resilience tests and bench elevate it
          to make validation failures common *)
  tune : bool;  (** hierarchical auto-tuning for performance *)
  mcts : Xpiler_tuning.Mcts.config;
  tuning_prune : bool;
      (** bound-based pruning of intra-pass candidates (lossless; changes
          modelled tuning time, never the chosen schedule) *)
  tuning_warm_start : bool;
      (** warm-start MCTS from the process-global schedule database, so
          repeated translations of similar kernels converge in fewer
          simulations *)
  unit_test_trials : int;
  jobs : int;
      (** domain-pool width for auto-tuning; results are identical for any
          value (deterministic parallel evaluation), only wall-clock changes *)
  trace_level : Xpiler_obs.Tracer.level;
      (** [Off]: no tracing. [Stages]/[Detail]: record a per-translation
          event stream, returned in [Xpiler.outcome.trace]. *)
  trace_sink : string option;
      (** When set (and [trace_level <> Off]), the JSONL journal is also
          written to this path at the end of the translation. *)
  profile : bool;
      (** Bracket the translation with the wall-clock + allocation profiler
          ([Obs.Prof]). Non-deterministic by nature and fully segregated
          from the trace stream: journals stay byte-identical either way. *)
  native_backend : bool;
      (** Ignored: nothing reads this field. It is kept only because
          [e2ebench/sweep.ml] sets it; drop the two together. *)
  store_dir : string option;
      (** When set, the durable knowledge store at this directory is loaded
          into the schedule DB / transposition table / solver memo before
          the translation and kept write-through for its duration (see
          [Xpiler_store.Store]). Persisted entries carry their effect
          receipts, so a cold process warm-starting from disk is observably
          identical to a warm in-process run — results and traces never
          change, only evals-to-target and wall-clock do. The CLI defaults
          this from [$XPILER_STORE_DIR]. *)
}

val default : t
(** Full QiMeng-Xpiler (annotation + SMT repair + the escalation ladder with
    rollback), tuning off — the accuracy experiments' setting. *)

val seed_pipeline : t
(** The pre-resilience pipeline: SMT repair only; when repair gives up the
    broken kernel is committed to pipeline state (the error-accumulation
    failure mode). The baseline arm of the resilience bench. *)

val without_smt : t
(** "QiMeng-Xpiler w/o SMT" ablation (escalation ladder also off). *)

val without_analysis : t
(** Static pre-validation disabled: every pass goes straight to the
    interpreter-based unit test and repairs pay full dynamic localization. *)

val without_smt_self_debug : t
(** "QiMeng-Xpiler w/o SMT + Self-Debugging" ablation. *)

val tuned : t
(** Full system with hierarchical auto-tuning (the performance experiments'
    setting); MCTS budget reduced from the paper's 512 simulations to keep
    simulated runs fast — the knob is exposed. *)

val with_seed : t -> int -> t

val with_jobs : t -> int -> t
(** Set the worker-domain count (clamped to at least 1). *)

val with_trace : ?sink:string -> t -> Xpiler_obs.Tracer.level -> t
(** Enable tracing, optionally journaling to [sink] (a JSONL path). *)

val with_fault_scale : t -> float -> t
(** Scale the simulated LLM's fault-injection rates (clamped to >= 0). *)

val with_max_escalation : t -> int -> t
(** Cap the escalation ladder at rung [0..4]: 0 validate-only, 1 +re-prompt,
    2 +SMT repair, 3 +symbolic fallback, 4 +skip-with-rollback. Never
    enables a mechanism the configuration already disabled ([use_smt],
    [rollback]). *)
