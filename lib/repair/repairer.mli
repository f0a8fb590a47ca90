open Xpiler_ir
open Xpiler_machine
open Xpiler_ops

(** SMT-based code repairing (paper Algorithm 3).

    For each localized site, the repairer builds a sketch with the suspect
    constant replaced by a hole, derives the hole's domain from program
    context (allocation sizes, copy lengths, sibling loop extents) and SMT
    side constraints (positivity, platform alignment granularity, dp4a
    divisibility — the Figure 5 constraint classes), solves for surviving
    candidates with the SMT-lite solver, stitches each back and accepts the
    first candidate that passes the platform checker and the unit tests. *)

type outcome =
  | Repaired of { kernel : Kernel.t; tests_run : int; site : string }
  | Gave_up of { reason : string; tests_run : int }

val candidate_values :
  platform:Platform.t -> Kernel.t -> Localize.site -> int list
(** The SMT-filtered candidate domain for a site (exposed for tests and for
    the Table 3 solving-time comparison). *)

val repair :
  ?max_tests:int ->
  ?rounds:int ->
  ?static:Xpiler_analysis.Analyzer.finding list ->
  ?clock:Xpiler_util.Vclock.t ->
  ?speculative:bool ->
  ?jobs:int ->
  platform:Platform.t ->
  op:Opdef.t ->
  shape:Opdef.shape ->
  Kernel.t ->
  outcome
(** [rounds] (default 2) bounds how many distinct faults can be fixed in
    sequence; [max_tests] (default 200) bounds unit-test executions.
    [static] passes pre-validation analyzer findings: their sites are tried
    first at a fraction of a localization round's modelled cost ([Vclock]
    charges 30s against 240s), with the dynamic rounds as fallback.

    [speculative] (default false; the pipeline enables it via
    [Config.speculative_repair]) evaluates each site's candidate batch over
    the domain pool with deterministic lowest-index-wins selection and
    cancellation of losers; [jobs] is the pool width. The selected repair
    equals serial testing's (first passing candidate), and the emitted
    charge/trace stream is byte-identical across job counts. *)

(** {2 Bench meters}

    Speculation is counted in the registry as
    [xpiler_repair_speculative_total{result=won|lost|cancelled}]: one
    [won] or [lost] per batch, and [cancelled] adds the losers above each
    winning index. The accounting is logical, hence jobs-invariant. *)

val reset_verdict_memo : unit -> unit
(** Drop the process-global candidate verdict/score memo (unit-test trial
    verdicts and mismatch scores keyed by structural kernel identity). The
    memo obeys [Xpiler_smt.Memo.set_enabled] and bypasses itself while
    tracing, so traced journals are byte-identical cold vs warm. *)

type wall_stats = {
  repairs : int;
  wall_seconds : float;  (** total time inside {!repair} *)
  localize_seconds : float;  (** dynamic bug localization *)
  solve_seconds : float;  (** SMT candidate-domain solving *)
  test_seconds : float;  (** serial-path unit testing (master domain only) *)
  score_seconds : float;  (** mismatch scoring for partial-repair ranking *)
}

val wall_totals : unit -> wall_stats
(** Wall-clock time spent inside {!repair} since the last reset, with a
    per-component breakdown. Component meters only cover work on the master
    domain — speculative task internals run unattributed — so they need not
    sum to [wall_seconds]. *)

val reset_wall_totals : unit -> unit
