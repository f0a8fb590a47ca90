open Xpiler_ir
open Xpiler_machine
module Pass = Xpiler_passes.Pass

(** Intra-pass auto-tuning (paper §5.1): a brute-force search over a
    pass's tuning knobs, keeping the candidate with the best modelled
    throughput. Every candidate that applies is scored by
    {!Costmodel.throughput} alone: no bound, no ordering, no skipped
    suffix.

    The depth-1 knob space is split factors per splittable loop,
    interchanges and pipelining, plus the empty sequence (keep as is).
    {b Composed candidates}: the top measured depth-1 split variants seed
    depth-2 compositions (split x reorder, split x pipeline) generated
    against their *transformed* kernels, so the search reaches schedules
    single-spec enumeration cannot express. A composed candidate applies
    only its last spec to its seed's kernel (passes are pure) and records
    the whole spec sequence. Candidates are not memoized: hashing whole
    kernels cost more than the repeats it saved. Each phase tries its
    candidates in the order above: the empty sequence, the split factors
    loop by loop, the interchanges, the pipelinings (the composed phase:
    per seed, best first, its interchanges then its pipelinings). It stops
    at the cap, so the split-factor lists and the reorder and pipeline
    walks past it are never made, and it builds a candidate's spec
    sequence only when its pass applies.

    The checker runs on the input and on the winner only. Split, reorder
    and pipeline rebuild serial loops or change a loop's kind, and the
    checker's rules read none of that, so no candidate of an accepted
    input is rejected (test_tuning checks this on golden sources, their
    action states and generated kernels).

    The tuner emits no trace events and charges no clock: it returns what
    it measured, and {!Mcts} turns that into the canonical
    [intra.variants] counts and [Auto_tuning] charges. *)

type variant = { specs : Pass.spec list; kernel : Kernel.t; throughput : float }

type stats = { evaluated : int  (** candidates that applied, each scored once *) }

val tune : platform:Platform.t -> Kernel.t -> variant * stats
(** Search the candidate space (the depth-1 phase and the composed phase,
    at most 12 candidates each) and keep the variant with the highest
    modelled throughput; the input kernel itself is always a candidate, so
    the result never regresses. Also returns how many candidates were
    measured, from which {!Mcts} emits the evaluation's charges and trace
    counts. A candidate whose pass does not apply is not measured.

    A rejected input returns itself at throughput 0 with nothing measured;
    otherwise the empty candidate reuses the input's modelled throughput.
    A winner other than the input is checked once; if the checker rejects
    it, the input is returned instead (this never happens on the
    benchmark workloads). *)
