(** Solver memo: canonical problem hash → outcome/models, an LRU of 65536
    entries ({!Xpiler_util.Lru}) per session ({!Xpiler_util.Session}).

    Entries carry the original search's [stats] as an effect *receipt*:
    [Solver] replays a hit's receipt through the same metrics/trace path a
    fresh solve uses, so a query's observable stream does not depend on
    whether an earlier query of the session filled its entry.
    [max_steps] (and [limit] for [Models]) are part of the key, which is
    what makes memoizing [Unsat] and [Timeout] sound.

    [Solver] is the only intended writer; benches and tests use [clear]
    to build cold baselines, and the naive engine bypasses the memo. *)

type mode = Solve | Models of { limit : int }

type payload =
  | Outcome of Problem.outcome
  | Model_list of (string * int) list list

type entry = { payload : payload; stats : Problem.stats  (** the receipt *) }

val find : mode:mode -> max_steps:int -> Problem.t -> entry option
(** [None] when absent. Counts a hit/miss in the registry (read back by
    {!hits}/{!misses}). *)

val store : mode:mode -> max_steps:int -> Problem.t -> entry -> unit
(** At capacity, evicts the least recently used entry. *)

val hits : unit -> int
val misses : unit -> int
(** Totals of [xpiler_smt_memo_lookups_total] since the last
    [Metrics.reset]; measure a window with deltas. *)

val size : unit -> int
val clear : unit -> unit
