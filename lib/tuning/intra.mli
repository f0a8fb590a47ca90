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

val composed_candidates : variant list -> limit:int -> Pass.spec list list
(** Depth-2 compositions seeded from measured single-split survivors (best
    first): reorders and pipelines applicable to each survivor's transformed
    kernel, appended to its specs; at most [limit] results. *)

type memo
(** Memo of the checker and the cost model for one search: [compiles] and
    modelled-throughput results keyed by (platform, kernel) on the
    structural {!Kernel.hash}/[equal]. {!Mcts.search} creates one per
    search, shares it across its root-parallel batches and drops it on
    return; {!tune} uses a fresh one. It is unbounded — a search's budget
    bounds it — and mutex-protected, so concurrent tuner workers may share
    it. Lookups count in [xpiler_intra_memo_lookups_total{table,result}]. *)

val create_memo : unit -> memo

val compiles : memo -> Platform.t -> Kernel.t -> bool
(** Memoized [Checker.compile] success. The checker is pure, so a hit and
    a recompute are indistinguishable except in time. *)

val tune_with_stats :
  ?clock:Xpiler_util.Vclock.t ->
  ?charge:(float -> unit) ->
  ?jobs:int ->
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
  ?jobs:int ->
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
    [Auto_tuning] stage) — the batched MCTS passes the pool's deferred
    charge so worker batches never touch the master clock. With
    [prune:false] every candidate is evaluated on a domain pool of [jobs]
    workers; results, trace counts and clock charges are replayed in
    candidate order, so any job count produces the byte-identical observable
    stream. With [prune:true] (default) the scan is sequential — the
    incumbent is the pruning threshold — and [jobs] is ignored; the
    observable stream is canonical: one [intra.variants] count plus one
    charge per measured variant, then a single aggregated [intra.pruned]
    count. *)
