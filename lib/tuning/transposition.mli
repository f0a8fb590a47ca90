open Xpiler_machine

(** Reward entries restored from the durable store, one table per session
    ({!Xpiler_util.Session}).

    Maps a state — [(platform, prune, kernel)], keyed
    by the structural {!Xpiler_ir.Kernel.hash}/[equal] — to the reward of
    its intra-pass tuning plus a *receipt* of the effects the original
    evaluation emitted (variants measured, variants pruned).

    Each {!Mcts.search} keeps the rewards it computes in its own table and
    drops them on return. This table holds only what {!restore} put in,
    i.e. what [Xpiler_store.Store.load] replayed from earlier processes; a
    search reads it after a miss in its own table. {!store} inserts
    nothing: it hands a fresh entry to the store's observer.

    Rewards are pure, so a restored entry changes wall-clock time only,
    and a hit replays the receipt's canonical stream (see {!Mcts}): a cold
    and a warm-started search give byte-identical journals. The table is
    an LRU of 65536 entries ({!Xpiler_util.Lru}); eviction is silent. *)

type entry = {
  reward : float;  (** best intra-tuned throughput; 0 for non-compiling states *)
  evaluated : int;  (** intra variants measured by the original evaluation *)
  pruned : int;  (** intra variants skipped by bound-based pruning *)
}

(** The full table key, exposed for the durable store (log records
    and last-wins compaction). *)
module Key : sig
  type t = {
    platform : Platform.id;
    prune : bool;
    kernel : Xpiler_ir.Kernel.t;
  }

  val equal : t -> t -> bool
  val hash : t -> int
end

val find :
  platform:Platform.id -> prune:bool -> Xpiler_ir.Kernel.t -> entry option
(** A restored entry. Silent: {!Mcts} counts its lookups with
    {!count_lookup}. *)

val store :
  platform:Platform.id -> prune:bool -> Xpiler_ir.Kernel.t -> entry -> unit
(** Pass a freshly evaluated state to the observer (if any). The table
    itself is not changed. *)

val count_lookup : hit:bool -> unit
(** Record one reward lookup in [xpiler_transposition_lookups_total] by
    result: {!Mcts} counts a hit for every lookup its own table or a
    restored entry serves, and a miss for every fresh evaluation. {!hits}
    reads the hits. *)

val count_eval : unit -> unit
(** Record one fresh reward evaluation (an actual {!Intra.tune} run);
    {!Mcts} calls this with every miss, so the misses equal {!evals}. *)

val size : unit -> int

val hits : unit -> int
val evals : unit -> int
(** Totals since the last [Metrics.reset], read from the registry counters
    [xpiler_transposition_lookups_total] and
    [xpiler_transposition_evals_total]; measure a window with deltas. *)

val clear : unit -> unit
(** Drop all restored entries (bench/test isolation); the counters keep
    running. *)

(** {2 Durable-store integration} (see [Xpiler_store.Store]) *)

val restore : Key.t -> entry -> unit
(** Insert a persisted entry. Silent — no hit/miss counts, no traces, no
    observer — so replaying a log emits none of the effects the original
    run already journaled. *)

val fold : (Key.t -> entry -> 'a -> 'a) -> 'a -> 'a
(** Fold over the restored entries (most recent first); the [@store]
    tests compare a replayed table with the records written. *)

val set_observer : (Key.t -> entry -> unit) option -> unit
(** Process-wide hook called on every {!store}, from whichever domain
    stores, so the observer must synchronize internally. The durable store
    uses it to append to its write-ahead log. *)
