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
  platform:Platform.t -> Kernel.t -> Site.t -> int list
(** The SMT-filtered candidate domain for a site (exposed for tests and for
    the Table 3 solving-time comparison). *)

val repair :
  ?max_tests:int ->
  ?rounds:int ->
  ?static:Xpiler_analysis.Analyzer.finding list ->
  ?clock:Xpiler_util.Vclock.t ->
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

    Candidates are tested one at a time in site order, then in the solver's
    candidate order; the first that passes is accepted. *)

(** {2 Bench meters}

    Candidate tests and mismatch scores go through [Unit_test]'s verdict
    memo; the repairer's lookups are counted in
    [xpiler_repair_verdict_memo_lookups_total{result=hit|miss}]. *)

type wall_stats = {
  repairs : int;
  wall_seconds : float;  (** total time inside {!repair} *)
  localize_seconds : float;  (** dynamic bug localization *)
  solve_seconds : float;  (** SMT candidate-domain solving *)
  test_seconds : float;  (** candidate and acceptance unit testing *)
  score_seconds : float;  (** mismatch scoring for partial-repair ranking *)
}

val wall_totals : unit -> wall_stats
(** Wall-clock time spent inside {!repair} since the last reset, with a
    per-component breakdown. Candidate construction and structural checks
    are not metered, so the components need not sum to [wall_seconds]. *)

val reset_wall_totals : unit -> unit
