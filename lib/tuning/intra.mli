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
      test_tuning.ml); skips are traced as [intra.pruned].
    - {b composed candidates} (on by default): the top measured depth-1
      split variants seed depth-2 compositions (split x reorder,
      split x pipeline) generated against their *transformed* kernels, so
      the search reaches schedules single-spec enumeration cannot express.
*)

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
    return; {!tune} uses a fresh one. It is unbounded — a search's budget
    bounds it — and owned by one search on one domain, so it takes no lock.
    Lookups count in [xpiler_intra_memo_lookups_total{table,result}], a
    stable series. *)

val create_memo : unit -> memo

val compiles : memo -> Platform.t -> Kernel.t -> bool
(** Memoized [Checker.compile] success. The checker is pure, so a hit and
    a recompute are indistinguishable except in time. *)

val tune_with_stats :
  ?clock:Xpiler_util.Vclock.t ->
  ?charge:(float -> unit) ->
  ?max_candidates:int ->
  ?prune:bool ->
  ?compose:bool ->
  memo:memo ->
  platform:Platform.t ->
  Kernel.t ->
  variant * stats
(** Like {!tune}, on the caller's [memo], additionally returning the
    evaluation/pruning counts — the receipt {!Mcts} stores in the
    transposition table so cache hits can replay the canonical effect
    stream of the original evaluation. *)

val tune :
  ?clock:Xpiler_util.Vclock.t ->
  ?charge:(float -> unit) ->
  ?max_candidates:int ->
  ?prune:bool ->
  ?compose:bool ->
  platform:Platform.t ->
  Kernel.t ->
  variant
(** Search the candidate space (each phase bounded by [max_candidates],
    default 64), keep the compilable variant with the highest modelled
    throughput; the input kernel itself is always a candidate, so the result
    never regresses.

    [charge] overrides the cost sink (default: charge [clock]'s
    [Auto_tuning] stage). With [prune:false] every candidate is evaluated,
    in candidate order, each emitting one [intra.variants] count and one
    charge. With [prune:true] (default) the scan stops at the first bound
    that cannot beat the incumbent; the observable stream is canonical: one
    [intra.variants] count plus one charge per measured variant, then a
    single aggregated [intra.pruned] count. *)
