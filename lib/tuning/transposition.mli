open Xpiler_machine

(** Transposition table for MCTS reward evaluations, one per session
    ({!Xpiler_util.Session}).

    Maps a state — [(platform, intra budget, prune, compose, kernel)], keyed
    by the structural {!Xpiler_ir.Kernel.hash}/[equal] — to the reward of
    its intra-pass tuning plus a *receipt* of the effects the original
    evaluation emitted (variants measured, variants pruned). Successive
    searches in a session share it, so a state is intra-tuned once per
    session instead of once per search.

    Rewards are pure, so sharing changes wall-clock time only, never values.
    Observable effects are kept deterministic by the receipt discipline (see
    {!Mcts}): both a table hit and a fresh evaluation emit exactly the
    receipt's canonical stream, so charges and trace counters depend only on
    the search trajectory, not on which search populated the table first,
    so a cold and a pre-populated table give byte-identical journals.

    The table is an LRU of 65536 entries ({!Xpiler_util.Lru}): at capacity
    a fresh {!store} evicts the least recently used entry, traced as
    [mcts.tt_evictions]. *)

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
(** Bind a freshly evaluated state (after a {!find} miss in this session)
    and pass it to the observer. *)

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
(** Fold over the live entries (most recent first), for
    {!Xpiler_store.Store.fingerprint}. *)

val set_observer : (Key.t -> entry -> unit) option -> unit
(** Process-wide hook called on every {!store} of a new state, from
    whichever domain stores, so the observer must synchronize internally.
    The durable store uses it to append to its write-ahead log. *)
