(** Process-global solver memo: canonical problem hash → outcome/models,
    an LRU of 65536 entries ({!Xpiler_util.Lru}).

    Entries carry the original search's [stats] as an effect *receipt*
    (same trick as the tuner's transposition table): [Solver] replays a
    hit's receipt through the same metrics/trace path a fresh solve uses,
    so cold-vs-warm and jobs=1-vs-jobs=N runs emit byte-identical
    observable streams. [max_steps] (and [limit] for [Models]) are part of
    the key, which is what makes memoizing [Unsat] and [Timeout] sound.

    [Solver] is the only intended writer; benches and tests use
    [set_enabled]/[clear] to build cold baselines. *)

type mode = Solve | Models of { limit : int }

(** The full memo key, exposed for the durable store (snapshot dumps,
    write-ahead-log records and last-wins compaction). *)
module Key : sig
  type t = { mode : mode; max_steps : int; problem : Problem.t }

  val equal : t -> t -> bool
  val hash : t -> int
end

type payload =
  | Outcome of Problem.outcome
  | Model_list of (string * int) list list

type entry = { payload : payload; stats : Problem.stats  (** the receipt *) }

val find : mode:mode -> max_steps:int -> Problem.t -> entry option
(** [None] when absent or when the memo is disabled. Counts a hit/miss in
    the registry (read back by {!hits}/{!misses}) only while enabled. *)

val store : mode:mode -> max_steps:int -> Problem.t -> entry -> unit
(** No-op while disabled. At capacity, evicts the least recently used
    entry. *)

val set_enabled : bool -> unit
(** Default enabled; benches disable it for the cold/naive baseline arm. *)

val hits : unit -> int
val misses : unit -> int
(** Totals of [xpiler_smt_memo_lookups_total] since the last
    [Metrics.reset]; measure a window with deltas. *)

val size : unit -> int
val clear : unit -> unit

(** {2 Durable-store integration} (see [Xpiler_store.Store]) *)

val restore : Key.t -> entry -> unit
(** Reinsert a persisted entry — silent (no hit/miss counts, no observer),
    and unconditional: it works even while the memo is disabled, so a
    bench's cold arm can still be rebuilt explicitly. LRU eviction still
    applies. *)

val fold : (Key.t -> entry -> 'a -> 'a) -> 'a -> 'a
(** Fold over the live entries (most recent first), for snapshot dumps. *)

val set_observer : (Key.t -> entry -> unit) option -> unit
(** Hook called (outside the memo mutex) on every fresh {!store} while the
    memo is enabled; the durable store uses it to append to its
    write-ahead log. *)
