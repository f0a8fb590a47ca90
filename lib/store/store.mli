(** Durable, shardable knowledge store.

    The three process-global learning stores — the warm-start schedule
    database ({!Xpiler_tuning.Schedule_db}), the tuner's transposition
    table ({!Xpiler_tuning.Transposition}) and the solver memo
    ({!Xpiler_smt.Memo}) — die with the process, so every run re-learns
    the same schedules. This module persists them under a directory
    (canonically [$XPILER_STORE_DIR]) as an append-only write-ahead log
    plus periodic snapshots, and replays log + snapshot back into the
    in-memory tables on the next process start.

    {b Content addressing and sharding.} Records are keyed by the same
    structural identities the in-memory tables use
    ({!Xpiler_ir.Kernel.hash}-based transposition keys,
    {!Xpiler_smt.Problem.hash}-based memo keys, schedule-DB signatures),
    and routed to one of N shard files by the {e shape-wildcard}
    {!Xpiler_tuning.Schedule_db.signature} (problems fall back to their
    structural hash) — so a worker fleet can split the keyspace along
    operator structure and every shape of one structure stays in one
    shard. N is fixed at store creation ([$XPILER_STORE_SHARDS],
    default 4) and recorded in the store's [STORE] meta file.

    {b Determinism.} Entries are persisted {e with} their effect receipts
    (transposition eval/prune counts, solver search stats), so a
    cold-process run that warm-starts from disk replays exactly the
    canonical charge/trace stream a warm in-process run emits — the
    observable-identity contract of PRs 4 and 7 extends across process
    boundaries. Replaying snapshot + log rebuilds each table bit-for-bit
    (asserted by the [@store] suite, {!fingerprint}).

    {b Crash safety.} Appends are whole flushed frames ({!Wal}), so a torn
    tail loads as a valid prefix and is truncated before the next append.
    Compaction stages every shard's new snapshot in a scratch directory
    and renames it into place; a crash anywhere leaves a consistent, at
    worst duplicated, record stream. *)

open Xpiler_tuning
module Memo = Xpiler_smt.Memo

type record =
  | Schedule of { signature : int; entry : Schedule_db.entry }
  | Transposition of Transposition.Key.t * Transposition.entry
  | Solver_memo of Memo.Key.t * Memo.entry

type t

val env_dir : unit -> string option
(** [$XPILER_STORE_DIR], if set and non-empty. *)

val default_shards : unit -> int
(** [$XPILER_STORE_SHARDS] (clamped to [1..1024]), default 4. *)

val open_store : ?shards:int -> dir:string -> unit -> (t, string) result
(** Create or open a store directory. [shards] applies only on first
    creation; an existing store's meta file wins thereafter. *)

val dir : t -> string
val shards : t -> int

val append : t -> record -> unit
(** Append one record to its shard's write-ahead log (framed, checksummed,
    flushed). Thread-safe. This is what the attached observers call; it is
    public for tests and offline tooling. *)

type counts = { schedule : int; transposition : int; solver_memo : int }

val zero_counts : counts
val total : counts -> int

type load_stats = {
  loaded : counts;
  torn_tails : int;  (** WAL tails truncated to a valid prefix *)
  corrupt_snapshots : int;  (** snapshots ignored or cut short; the log still replays *)
  dropped : int;  (** checksummed frames whose payload failed to decode *)
}

val load : ?db:Schedule_db.t -> t -> load_stats
(** Replay every shard (snapshot first, then log; last write wins) into
    the in-memory stores via their silent [restore] entry points — no
    hit/miss counts, no traces, no observer echo. [db] defaults to
    {!Schedule_db.default}. *)

val attach : ?db:Schedule_db.t -> t -> unit
(** Register the write-through observers on the three stores: from here
    on, every fresh entry they learn is appended to the WAL. At most one
    store is attached per process (a prior attachment is detached). *)

val detach : unit -> unit
(** Unregister the observers (if any) and close the appenders. *)

val active : unit -> t option
(** The currently attached store. *)

val ensure : ?db:Schedule_db.t -> dir:string -> unit -> (t, string) result
(** Idempotent open + {!load} + {!attach}: the one-call wiring used by
    [Core.Xpiler] and the CLI. Already attached to [dir] → no-op. *)

val close : t -> unit
(** Flush and close the shard appenders (they reopen lazily). *)

type compact_stats = { records_in : int; records_out : int; bytes : int }

val compact : t -> (compact_stats, string) result
(** Fold snapshot + log into a fresh snapshot per shard (last-wins by
    structural key, dropping superseded rewrites and undecodable frames)
    and empty the logs. Atomic per shard: scratch-dir staging + rename. *)

type info = {
  info_dir : string;
  info_shards : int;
  snapshot_records : counts;
  wal_records : counts;
  bytes : int;
  damaged : bool;  (** any torn tail or corrupt header seen *)
}

val scan : t -> info
(** Read-only census of the on-disk files (the [xpiler store] stats). *)

val clear_files : t -> int
(** Delete every shard file (the meta file survives); returns the number
    of files removed. *)

val fingerprint : ?db:Schedule_db.t -> unit -> string
(** Order-insensitive digest of the three in-memory stores' contents.
    Stable across construction paths that replay the same records (e.g.
    two loads of equivalent stores); the [@store] determinism tests
    compare these. *)
