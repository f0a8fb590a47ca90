(** Durable knowledge store.

    The three process-global learning stores — the warm-start schedule
    database ({!Xpiler_tuning.Schedule_db}), the tuner's transposition
    table ({!Xpiler_tuning.Transposition}) and the solver memo
    ({!Xpiler_smt.Memo}) — die with the process, so every run re-learns
    the same schedules. This module persists them under a directory
    (canonically [$XPILER_STORE_DIR]) as one append-only log,
    [DIR/store.wal], and replays it back into the in-memory tables on the
    next process start.

    {b Content addressing.} Records are keyed by the same structural
    identities the in-memory tables use ({!Xpiler_ir.Kernel.hash}-based
    transposition keys, {!Xpiler_smt.Problem.hash}-based memo keys,
    schedule-DB signatures); replay is last-write-wins per key.

    {b Determinism.} Entries are persisted {e with} their effect receipts
    (transposition eval/prune counts, solver search stats), so a
    cold-process run that warm-starts from disk replays exactly the
    canonical charge/trace stream a warm in-process run emits, across
    process boundaries. Replaying the log rebuilds each table bit-for-bit
    (asserted by the [@store] suite, {!fingerprint}).

    {b Crash safety.} Appends are whole flushed frames ({!Wal}), so a torn
    tail loads as a valid prefix and is truncated before the next append.
    Compaction writes [store.wal.tmp] and renames it over the log, so a
    crash leaves the old log or the compacted one. The store is a cache:
    it is safe to delete at any time, and a log in an older format (or an
    old sharded store's files) is ignored, so those runs start cold. *)

open Xpiler_tuning
module Memo = Xpiler_smt.Memo

type record =
  | Schedule of { signature : int; entry : Schedule_db.entry }
  | Transposition of Transposition.Key.t * Transposition.entry
  | Solver_memo of Memo.Key.t * Memo.entry

type t

val env_dir : unit -> string option
(** [$XPILER_STORE_DIR], if set and non-empty. *)

val open_store : dir:string -> unit -> (t, string) result
(** Create or open a store directory; [Error] if [dir] cannot be created
    or is not a directory. *)

val dir : t -> string

val append : t -> record -> unit
(** Append one record to the log (framed, checksummed, flushed).
    Thread-safe. Raises [Sys_error] or [Unix.Unix_error] when the log cannot
    be opened or written. This is what the attached observers call; it is
    public for tests and offline tooling. *)

type counts = { schedule : int; transposition : int; solver_memo : int }

val zero_counts : counts
val total : counts -> int

type load_stats = {
  loaded : counts;
  torn_tails : int;  (** logs cut short or with a corrupt header *)
  dropped : int;  (** checksummed frames whose payload failed to decode *)
}

val load : ?db:Schedule_db.t -> t -> load_stats
(** Replay the log (last write wins) into the in-memory stores via their silent [restore] entry points — no
    hit/miss counts, no traces, no observer echo. [db] defaults to
    {!Schedule_db.default}. *)

val attach : ?db:Schedule_db.t -> t -> unit
(** Register the write-through observers on the three stores: from here
    on, every fresh entry they learn is appended to the log. At most one
    store is attached per process (a prior attachment is detached). An
    append that fails prints one warning to stderr and detaches the store;
    the learning store that produced the record is unaffected. *)

val detach : unit -> unit
(** Unregister the observers (if any) and close the appenders. *)

val active : unit -> t option
(** The currently attached store. *)

val ensure : ?db:Schedule_db.t -> dir:string -> unit -> (t, string) result
(** Idempotent open + {!load} + {!attach}: the one-call wiring used by
    [Core.Xpiler] and the CLI. Already attached to [dir] → no-op. *)

val close : t -> unit
(** Flush and close the appender (it reopens lazily). *)

type compact_stats = { records_in : int; records_out : int; bytes : int }

val compact : t -> (compact_stats, string) result
(** Rewrite the log with one record per structural key (last wins, in
    first-seen order), dropping superseded rewrites and undecodable
    frames. Atomic: {!Wal.write_atomic}. *)

type info = {
  info_dir : string;
  records : counts;
  bytes : int;
  damaged : bool;  (** a torn tail, corrupt header or undecodable frame seen *)
}

val scan : t -> info
(** Read-only census of the log (the [xpiler store] stats). *)

val clear_files : t -> int
(** Delete the log and any leftover [store.wal.tmp]; returns the number of
    files removed. *)

val fingerprint : ?db:Schedule_db.t -> unit -> string
(** Order-insensitive digest of the three in-memory stores' contents.
    Stable across construction paths that replay the same records (e.g.
    two loads of equivalent stores); the [@store] determinism tests
    compare these. *)
