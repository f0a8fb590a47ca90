open Xpiler_ir
open Xpiler_ops

(** Bug localization (paper Algorithm 2).

    Given a transformed program that fails its unit tests, narrow the fault
    to a ranked list of repair sites: (1) the unit-test oracle's trial
    ({!Unit_test.probe}) names the output buffers that diverge (or the
    runtime error that ended the run); (2) candidate sites are restricted
    to the dataflow cone of the failing buffers; (3) they are ranked by
    kind (intrinsic/copy lengths, then loop bounds, then store indices).
    The 240 modelled seconds the repairer charges per localization round
    stand in for the paper's binary search with inserted print statements. Sites under
    data-dependent control flow are reported separately: the SMT stage
    cannot extract constraints for them (§7.6). *)

type report = {
  failing_buffers : string list;
  runtime_error : string option;
  sites : Site.t list;
  unrepairable : string list;
      (** descriptions of fault locations under data-dependent control flow *)
}

val lookups : Unit_test.lookups
(** The repair loop's verdict-memo lookups,
    [xpiler_repair_verdict_memo_lookups_total{result=hit|miss}]: the
    localizer's trials and the repairer's candidate tests and scores. *)

val localize : ?seed:int -> op:Opdef.t -> shape:Opdef.shape -> Kernel.t -> report
(** [seed] selects the trial; the default is the unit-test oracle's first,
    so localization reads the failure validation saw from the verdict
    memo instead of running the kernel again. A trial that has to run is
    metered like every other; its lookup counts in {!lookups}. Raises
    {!Unit_test.Reference_failed} when the reference run raises. *)

val of_findings : Xpiler_analysis.Analyzer.finding list -> report
(** Build a report from static-analyzer findings alone, with no probe run.
    Findings without sites land in [unrepairable]; barrier-divergence
    findings surface as a modelled [runtime_error]. *)
