(** Domain pool for independent whole translations.

    [map] evaluates a function over a list on up to [jobs] OCaml 5 domains
    and returns the results in input order. It is the only parallel level:
    the bench harness runs whole translations through it, and nothing below
    a translation pools. Every task runs under {!Session.fresh}: it starts
    with empty caches and no ambient tracer, sees only what it computes
    itself, and leaves the caller's session as it was, so [jobs=1] and
    [jobs=N] runs agree. If tasks fail, the first failing task by input
    order re-raises with its backtrace; the other results are dropped. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f inputs] with results in input order. The caller sizes
    every call; there is no process-wide default.

    The effective job count is additionally clamped to {!get_max_domains}
    (default [Domain.recommended_domain_count ()]): oversubscribed domains
    cannot run concurrently but still join every stop-the-world collection,
    so on a single-core host [jobs > 1] degrades to inline execution, with
    the same results. Helper domains are spawned per call and joined before
    [map] returns; idle parked domains were measured to slow unrelated
    serial code 20-100x. *)

val get_max_domains : unit -> int
(** Cap on real worker domains per [map]: last {!set_max_domains} value,
    else [Domain.recommended_domain_count ()]. *)

val set_max_domains : int -> unit
(** Override the domain cap — tests use this to force cross-domain execution
    even on a single-core host. *)

(** {2 Self-stats} *)

type stats = { busy_seconds : float  (** sum of per-task wall time across all domains *) }

val stats : unit -> stats
(** Totals since process start; readers take before/after deltas. The value
    is schedule-dependent: identical {e results} across job counts, but not
    identical busy seconds. *)
