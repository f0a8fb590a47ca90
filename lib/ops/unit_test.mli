open Xpiler_ir
open Xpiler_machine

(** Unit-test oracle: run a candidate kernel against the operator's canonical
    sequential reference on random inputs (the paper's *computation accuracy*
    check). *)

type verdict = Pass | Fail of string

val make_args :
  Xpiler_util.Rng.t -> Opdef.t -> Opdef.shape -> (string * Interp.arg) list
(** Random inputs, zero-filled outputs, ordered as the kernel's parameters. *)

val reference_outputs :
  Xpiler_util.Rng.t -> Opdef.t -> Opdef.shape -> (string * Interp.arg) list * (string * Tensor.t) list
(** Inputs plus the outputs the serial reference produces on them. *)

exception Reference_failed of string
(** The serial reference run itself raised (out-of-bounds read, fuel
    exhausted, …): the operator cannot be checked at this shape. *)

val reference_outputs_seeded :
  seed:int -> Opdef.t -> Opdef.shape -> (string * Interp.arg) list * (string * Tensor.t) list
(** Like {!reference_outputs} with [Rng.create seed], but the serial
    reference run is cached per (op, shape, seed) in a bounded LRU table —
    the checker replays the same oracle for every candidate kernel. Returned
    buffers are private copies; mutating them never corrupts the cache. A
    hit requires the same [Opdef.t] value (physical identity), so
    regenerated fuzz ops that reuse a name cannot collide. Raises
    {!Reference_failed} when the reference run raises (the failure is
    cached too). Cache misses count in
    [xpiler_unit_test_reference_runs_total]. *)

(** {2 The checker}

    Every trial is memoized process-wide, keyed by (physical op, shape,
    trial seed, structural kernel): re-testing a kernel costs a lookup. An
    entry keeps the run's receipt and a hit replays it to the ambient
    tracer, so results, modelled charges (callers charge before checking)
    and trace journals are the same as with a fresh run. Under a tracer, an
    entry recorded without one is a miss and is re-run. *)

type lookups = { hit : Xpiler_obs.Metrics.counter; miss : Xpiler_obs.Metrics.counter }
(** The counters a caller's memo lookups are counted in; by default the
    pipeline's [xpiler_unit_test_memo_lookups_total{result}]. *)

val check :
  ?trials:int -> ?seed:int -> ?lookups:lookups -> Opdef.t -> Opdef.shape -> Kernel.t -> verdict
(** Execute the candidate on [trials] fresh random input sets (default 2;
    trial [i] draws from seed [seed + 7919 i], [seed] defaulting to
    20250706) and compare every output buffer to the reference, stopping at
    the first failing trial. Runtime errors (out of bounds, unbound names,
    fuel) are failures, and so is a reference run that raises:
    [Fail "reference run: <msg>"]. *)

val check_scored :
  ?seed:int -> ?lookups:lookups -> Opdef.t -> Opdef.shape -> Kernel.t -> verdict * int
(** The trial-0 verdict (identical to [check ~trials:1 ~seed]) and the
    repair mismatch score — the number of expected-output elements the
    candidate gets wrong, [max_int] on a runtime error — from one memo
    entry. A failing run scores as it is judged; a passing entry is scored
    on first demand by a silent re-run, then cached. *)

val mismatch_score : ?seed:int -> ?lookups:lookups -> Opdef.t -> Opdef.shape -> Kernel.t -> int
(** The score half of {!check_scored}. *)

val reset_memo : unit -> unit
(** Drop every memoized trial (the reference cache stays). *)
