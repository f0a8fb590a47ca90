(** Durable knowledge store.

    The tuner's reward entries ({!Xpiler_tuning.Transposition}) die with
    the process, so every run would re-evaluate the same states. This
    module persists them under a directory (canonically
    [$XPILER_STORE_DIR]) as one append-only log, [DIR/store.wal], and
    replays it back into the in-memory table on the next process start.
    The solver memo ({!Xpiler_smt.Memo}) stays in-process: a fresh solve
    is cheap enough that replaying a persisted one did not shorten a run.

    {b Reward entries.} A tuner search drops its own reward table on
    return; {!Xpiler_tuning.Transposition} holds only what {!load}
    restored. A state that two searches of one process both evaluate is
    appended twice; replay and {!compact} keep the last.

    {b Sessions.} Replay fills the session that opens the store (the
    caller of {!load} or {!ensure}; for the CLI, the main domain). The
    write-through observer is process-wide: once attached, every
    session's fresh entries are appended, pool tasks' included, through
    the store's own lock. A pool task's fresh session is not filled by
    replay, so it sees only what it computes itself.

    {b Content addressing.} Records are keyed by the structural identity
    the in-memory table uses ({!Xpiler_ir.Kernel.hash}-based
    transposition keys); replay is last-write-wins per key.

    {b Determinism.} Entries are persisted {e with} their effect receipts
    (eval/prune counts), so a run that reads a restored entry replays
    exactly the canonical charge/trace stream the run that evaluated it
    emitted: a translation's result, modelled time and journal are the
    same with a cold store and a warm one, and only the number of fresh
    evaluations (wall-clock) drops. Replaying the log rebuilds the table
    bit-for-bit (asserted by the [@store] suite).

    {b Crash safety.} Appends are whole flushed frames ({!Wal}), so a torn
    tail loads as a valid prefix and is truncated before the next append.
    Compaction writes [store.wal.tmp] and renames it over the log, so a
    crash leaves the old log or the compacted one. The store is a cache:
    it is safe to delete at any time, and a log in an older format (or an
    old sharded store's files) is ignored, so those runs start cold. *)

open Xpiler_tuning

type record = Transposition.Key.t * Transposition.entry

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
    be opened or written. This is what the attached observer calls; it is
    public for tests and offline tooling. *)

type load_stats = {
  loaded : int;
  torn_tails : int;  (** logs cut short or with a corrupt header *)
  dropped : int;  (** checksummed frames whose payload failed to decode *)
}

val load : t -> load_stats
(** Replay the log (last write wins) into the calling session's
    transposition table via its silent [restore] — no hit/miss counts, no
    traces, no observer echo. *)

val attach : t -> unit
(** Register the write-through observer on the transposition table: from
    here on, every fresh entry it is handed, in any session, is appended
    to the log. At most one store is attached per process (a prior
    attachment is detached). An append that fails prints one warning to
    stderr and detaches the store; the search that produced the record is
    unaffected. *)

val detach : unit -> unit
(** Unregister the observer (if any) and close the appender. *)

val active : unit -> t option
(** The currently attached store. *)

val ensure : dir:string -> unit -> (t, string) result
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
  records : int;
  bytes : int;
  damaged : bool;  (** a torn tail, corrupt header or undecodable frame seen *)
}

val scan : t -> info
(** Read-only census of the log (the [xpiler store] stats). *)

val clear_files : t -> int
(** Delete the log and any leftover [store.wal.tmp]; returns the number of
    files removed. *)
