open Xpiler_ir
open Xpiler_ops

(** Bug localization (paper Algorithm 2).

    Given a transformed program that fails its unit tests, narrow the fault
    to a ranked list of repair sites: (1) one probe run on the unit-test
    oracle's inputs learns which output buffers diverge (or where a runtime
    error occurs); (2) candidate sites are restricted to the dataflow cone
    of the failing buffers; (3) they are ranked by kind (intrinsic/copy
    lengths, then loop bounds, then store indices). The 240 modelled
    seconds the repairer charges per localization round stand in for the
    paper's binary search with inserted print statements. Sites under
    data-dependent control flow are reported separately: the SMT stage
    cannot extract constraints for them (§7.6). *)

type report = {
  failing_buffers : string list;
  runtime_error : string option;
  sites : Site.t list;
  unrepairable : string list;
      (** descriptions of fault locations under data-dependent control flow *)
}

val localize : ?seed:int -> op:Opdef.t -> shape:Opdef.shape -> Kernel.t -> report
(** [seed] selects the probe inputs; the default matches the unit-test
    oracle's, so localization sees exactly the failure validation saw. The
    probe run is metered with {!Unit_test.meter}, also when it ends in a
    runtime error. *)

val of_findings : Xpiler_analysis.Analyzer.finding list -> report
(** Build a report from static-analyzer findings alone, with no probe run.
    Findings without sites land in [unrepairable]; barrier-divergence
    findings surface as a modelled [runtime_error]. *)
