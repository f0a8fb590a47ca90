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
      full cost model. Within a phase this is lossless by the bound's
      admissibility (fuzzed in test_tuning.ml). A skipped candidate is never
      measured, so it cannot seed the composed phase: pruning can change the
      composed candidates, and so, in principle, the result. Skips are
      counted in {!stats}.
    - {b composed candidates} (always on): the top measured depth-1
      split variants seed depth-2 compositions (split x reorder,
      split x pipeline) generated against their *transformed* kernels, so
      the search reaches schedules single-spec enumeration cannot express.
      A composed candidate applies only its last spec to its seed's kernel
      (passes are pure) and records the whole spec sequence.

    The depth-1 knob space is split factors per splittable loop,
    interchanges and pipelining, plus the empty sequence (keep as is).
    Every other measured candidate costs one checker run and one
    cost-model walk, unmemoized: hashing whole kernels cost more than the
    repeats it saved.

    The tuner emits no trace events and charges no clock: it returns what
    it measured and pruned, and {!Mcts} turns that into the canonical
    [intra.variants]/[intra.pruned] counts and [Auto_tuning] charges. *)

type variant = { specs : Pass.spec list; kernel : Kernel.t; throughput : float }

type stats = {
  evaluated : int;  (** variants measured (checker + full cost model) *)
  pruned : int;  (** variants skipped by bound-based pruning *)
}

val tune : ?prune:bool -> platform:Platform.t -> Kernel.t -> variant * stats
(** Search the candidate space (the depth-1 phase and the composed phase,
    at most 12 candidates each), keep the compilable variant with the
    highest modelled throughput; the input kernel itself is always a candidate, so the result
    never regresses. Also returns the measured/pruned counts, from which
    {!Mcts} emits the evaluation's charges and trace counts.

    The checker runs on the input once. A rejected input returns itself at
    throughput 0 with nothing measured or pruned; otherwise the empty
    candidate reuses that check and the input's modelled throughput.

    With [prune:false] every candidate is measured, in candidate order.
    With [prune:true] (default) the scan stops at the first bound that
    cannot beat the incumbent, and the rest count as pruned. *)
