open Xpiler_ir
open Xpiler_machine
module Pass = Xpiler_passes.Pass

(** Intra-pass auto-tuning (paper §5.1): search over a pass's tuning knobs,
    keeping the candidate with the best modelled throughput. Two search
    refinements over plain brute force:

    - {b bound-based pruning} (on by default): candidates are sorted by a
      cheap admissible throughput bound ({!Costmodel.throughput_bound}) and
      scanned best-bound-first; once a bound cannot beat the incumbent the
      whole remaining suffix is skipped without running the checker or the
      full cost model. Lossless by the bound's admissibility (fuzzed in
      test_tuning.ml); skips are counted in {!stats}.
    - {b composed candidates} (on by default): the top measured depth-1
      split variants seed depth-2 compositions (split x reorder,
      split x pipeline) generated against their *transformed* kernels, so
      the search reaches schedules single-spec enumeration cannot express.

    The tuner emits no trace events and charges no clock: it returns what
    it measured and pruned, and {!Mcts} turns that into the canonical
    [intra.variants]/[intra.pruned] counts and [Auto_tuning] charges. *)

type variant = { specs : Pass.spec list; kernel : Kernel.t; throughput : float }

type stats = {
  evaluated : int;  (** variants measured (checker + full cost model) *)
  pruned : int;  (** variants skipped by bound-based pruning *)
}

val candidates : Platform.t -> Kernel.t -> Pass.spec list list
(** The depth-1 knob space: split factors per splittable loop, interchanges,
    pipelining — each entry is a short spec sequence to try on top of the
    kernel. Includes the empty sequence (keep as is). *)

type memo
(** Memo of the checker and the cost model for one search: [compiles] and
    modelled-throughput results keyed by (platform, kernel) on the
    structural {!Kernel.hash}/[equal]. {!Mcts.search} creates one per
    search, shares it across its root-parallel batches and drops it on
    return; {!tune} without one uses a fresh one. It is unbounded — a
    search's budget bounds it — and owned by one search on one domain, so
    it takes no lock.
    Lookups count in [xpiler_intra_memo_lookups_total{table,result}], a
    stable series. *)

val create_memo : unit -> memo

val compiles : memo -> Platform.t -> Kernel.t -> bool
(** Memoized [Checker.compile] success. The checker is pure, so a hit and
    a recompute are indistinguishable except in time. *)

val tune :
  ?memo:memo ->
  ?max_candidates:int ->
  ?prune:bool ->
  ?compose:bool ->
  platform:Platform.t ->
  Kernel.t ->
  variant * stats
(** Search the candidate space (each phase bounded by [max_candidates],
    default 64), keep the compilable variant with the highest modelled
    throughput; the input kernel itself is always a candidate, so the result
    never regresses. Also returns the measured/pruned counts — the receipt
    {!Mcts} stores in the transposition table so a hit can replay the
    canonical effect stream of the original evaluation.

    With [prune:false] every candidate is measured, in candidate order.
    With [prune:true] (default) the scan stops at the first bound that
    cannot beat the incumbent, and the rest count as pruned. *)
