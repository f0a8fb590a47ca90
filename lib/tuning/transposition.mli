open Xpiler_machine

(** Shared transposition table for MCTS reward evaluations.

    Maps a state — [(platform, intra budget, prune, compose, kernel)], keyed
    by the structural {!Xpiler_ir.Kernel.hash}/[equal] — to the reward of
    its intra-pass tuning plus a *receipt* of the effects the original
    evaluation emitted (variants measured, variants pruned). The table is
    mutex-protected and process-global: root-parallel MCTS batches and
    successive searches all share it, so a state is intra-tuned once per
    process instead of once per searcher.

    Rewards are pure, so sharing changes wall-clock time only, never values.
    Observable effects are kept deterministic by the receipt discipline (see
    {!Mcts}): both a table hit and a fresh evaluation emit exactly the
    receipt's canonical stream, so charges and trace counters depend only on
    the search trajectory, not on which searcher populated the table first —
    preserving the byte-identical [--jobs] guarantee.

    The table is an LRU of 65536 entries ({!Xpiler_util.Lru}): at capacity
    a fresh {!store} evicts the least recently used entry, traced as
    [mcts.tt_evictions]. *)

type entry = {
  reward : float;  (** best intra-tuned throughput; 0 for non-compiling states *)
  evaluated : int;  (** intra variants measured by the original evaluation *)
  pruned : int;  (** intra variants skipped by bound-based pruning *)
}

(** The full table key, exposed for the durable store (snapshot dumps,
    write-ahead-log records and last-wins compaction). *)
module Key : sig
  type t = {
    platform : Platform.id;
    budget : int;
    prune : bool;
    compose : bool;
    kernel : Xpiler_ir.Kernel.t;
  }

  val equal : t -> t -> bool
  val hash : t -> int
end

val find :
  platform:Platform.id -> budget:int -> prune:bool -> compose:bool ->
  Xpiler_ir.Kernel.t -> entry option
(** Counted as a hit or a miss in {!hits}/{!misses}. *)

val store :
  platform:Platform.id -> budget:int -> prune:bool -> compose:bool ->
  Xpiler_ir.Kernel.t -> entry -> unit
(** Bind a freshly evaluated state. A state already present (a racing
    searcher stored it first) is left as is and not passed to the
    observer. *)

val count_eval : unit -> unit
(** Record one fresh reward evaluation (an actual [Intra.tune] run). {!Mcts}
    calls this on every table miss *and* when sharing is disabled, so
    benches can compare search modes with a single meter. *)

val size : unit -> int

val hits : unit -> int
val misses : unit -> int
val evals : unit -> int
(** Totals since the last [Metrics.reset], read from the registry counters
    [xpiler_transposition_lookups_total] and
    [xpiler_transposition_evals_total]; measure a window with deltas. *)

val clear : unit -> unit
(** Drop all entries (bench/test isolation); the counters keep running. *)

(** {2 Durable-store integration} (see [Xpiler_store.Store]) *)

val restore : Key.t -> entry -> unit
(** Reinsert a persisted entry. Silent — no hit/miss counts, no eviction
    traces, no observer — so replaying a log emits none of the effects the
    original run already journaled. LRU eviction still applies. *)

val fold : (Key.t -> entry -> 'a -> 'a) -> 'a -> 'a
(** Fold over the live entries (most recent first), for snapshot dumps. *)

val set_observer : (Key.t -> entry -> unit) option -> unit
(** Hook called on every {!store} of a new state — outside the table
    mutex, possibly from pool worker domains, so the observer must
    synchronize internally. The durable store uses it to append to its
    write-ahead log. *)
