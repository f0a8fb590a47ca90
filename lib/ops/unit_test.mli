open Xpiler_ir
open Xpiler_machine

(** Unit-test oracle: run a candidate kernel against the operator's canonical
    sequential reference on random inputs (the paper's *computation accuracy*
    check). *)

type verdict = Pass | Fail of string

val oversized : Opdef.t -> Opdef.shape -> string option
(** A message naming the first buffer over the oracle's 2^24-element limit
    and its element count; [None] when every buffer fits. *)

val make_args :
  Xpiler_util.Rng.t -> Opdef.t -> Opdef.shape -> (string * Interp.arg) list
(** Random inputs, zero-filled outputs, ordered as the kernel's parameters.
    Raises [Invalid_argument] before allocating anything when {!oversized}. *)

val reference_outputs :
  Xpiler_util.Rng.t -> Opdef.t -> Opdef.shape -> (string * Interp.arg) list * (string * Tensor.t) list
(** Inputs plus the outputs the serial reference produces on them. *)

exception Reference_failed of string
(** The serial reference run itself raised (out-of-bounds read, fuel
    exhausted, …): the operator cannot be checked at this shape. *)

val reference_outputs_seeded :
  seed:int -> Opdef.t -> Opdef.shape -> (string * Interp.arg) list * (string * Tensor.t) list
(** Like {!reference_outputs} with [Rng.create seed], but the serial
    reference run is cached per (op, shape, seed) in a bounded session LRU —
    the checker replays the same oracle for every candidate kernel. Returned
    buffers are private copies; mutating them never corrupts the cache. A
    hit requires the same [Opdef.t] value (physical identity), so
    regenerated fuzz ops that reuse a name cannot collide. Raises
    {!Reference_failed} when the reference run raises (the failure is
    cached too). Cache misses count in
    [xpiler_unit_test_reference_runs_total]. *)

val meter : Interp.stats -> unit
(** Emit one candidate run's [interp.*] counts to the ambient tracer (a
    no-op when tracing is off). The interpreter emits nothing itself: the
    checker below meters every trial, {!probe}'s included, through this
    function. Serial reference runs are not metered, so a journal does not
    depend on the reference cache. *)

(** {2 The checker}

    Every trial is memoized in the session ({!Xpiler_util.Session}), keyed
    by (physical op, shape, trial seed, structural kernel): re-testing a
    kernel, scoring it or localizing its fault costs a lookup. One
    comparison of the run's outputs gives the entry its verdict, score and
    failing outputs. An entry keeps the run's stats, and every trial meters
    them with {!meter}, on a hit and on a miss, so results, modelled
    charges (callers charge before checking) and trace journals are the
    same whether or not the memo served the trial. An argument-binding
    error runs nothing: it is neither metered nor memoized. *)

type lookups = { hit : Xpiler_obs.Metrics.counter; miss : Xpiler_obs.Metrics.counter }
(** The counters a caller's memo lookups are counted in. {!check} and
    {!mismatch_score} default to the pipeline's
    [xpiler_unit_test_memo_lookups_total{result}]. *)

val check :
  ?trials:int -> ?seed:int -> ?lookups:lookups -> Opdef.t -> Opdef.shape -> Kernel.t -> verdict
(** Execute the candidate on [trials] fresh random input sets (default 2;
    trial [i] draws from seed [seed + 7919 i], [seed] defaulting to
    20250706) and compare every output buffer to the reference, stopping at
    the first failing trial. Runtime errors (out of bounds, unbound names,
    fuel) are failures, and so is a reference run that raises:
    [Fail "reference run: <msg>"]. *)

val mismatch_score : ?seed:int -> ?lookups:lookups -> Opdef.t -> Opdef.shape -> Kernel.t -> int
(** The repair mismatch score of trial [seed] (the trial of
    [check ~trials:1 ~seed]): the number of expected-output elements the
    candidate gets wrong at the verdict's tolerance (rtol 1e-3, atol 1e-4),
    [max_int] on a runtime error or a reference that raises. So a [Pass]
    scores 0. *)

val probe :
  ?seed:int -> lookups:lookups -> Opdef.t -> Opdef.shape -> Kernel.t -> string option * string list
(** Trial [seed]'s runtime error, if one ended the run, and its failing
    output buffers in [op]'s buffer order: every output on a runtime or
    argument-binding error. The repair localizer reads a fault from here,
    counting its lookup in [lookups].
    Raises {!Reference_failed} when the reference run raises. *)

val reset_memo : unit -> unit
(** Drop every memoized trial (the reference cache stays). *)
