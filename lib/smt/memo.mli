(** Solver memo: canonical problem hash → [Solver.solve] outcome, an LRU of
    65536 entries ({!Xpiler_util.Lru}) per session ({!Xpiler_util.Session}).

    Entries carry the original search's [stats] as an effect *receipt*:
    [Solver] replays a hit's receipt through the same metrics/trace path a
    fresh solve uses, so a query's observable stream does not depend on
    whether an earlier query of the session filled its entry.
    [max_steps] is part of the key, which is what makes memoizing [Unsat]
    and [Timeout] sound. Model lists ([Solver.solve_all]) are searched
    afresh every time.

    [Solver] is the only intended writer; benches and tests use [clear]
    to build cold baselines, and the naive engine bypasses the memo. *)

type entry = { outcome : Problem.outcome; stats : Problem.stats  (** the receipt *) }

val find : max_steps:int -> Problem.t -> entry option
(** [None] when absent. Counts a hit/miss in the registry (read back by
    {!hits}/{!misses}). *)

val store : max_steps:int -> Problem.t -> entry -> unit
(** At capacity, evicts the least recently used entry. *)

val hits : unit -> int
val misses : unit -> int
(** Totals of [xpiler_smt_memo_lookups_total] since the last
    [Metrics.reset]; measure a window with deltas. *)

val size : unit -> int
val clear : unit -> unit
