(** Deterministic domain pool.

    [map] evaluates a function over a list on up to [jobs] OCaml 5 domains
    and returns the results in input order. The contract is stronger than
    plain parallel map: every observable output — results, virtual-clock
    charges, deferred trace events, exceptions — is byte-identical whatever
    the job count, so [jobs=8] runs produce the same CSVs, journals and
    tuning decisions as [jobs=1].

    How determinism is achieved:
    - each task gets an independently seeded {!Rng.t} derived from
      [(seed, index)] only — never from the schedule;
    - tasks must not mutate shared state or emit ambient traces; instead
      they buffer effects with {!charge} / {!defer}, and the buffers are
      replayed on the calling domain in input order after all tasks finish
      (callers in this repo additionally wrap task bodies in
      [Obs.Trace.without], which is what makes [jobs=1] — inline execution —
      match [jobs>1], where worker domains have no ambient tracer);
    - the first failing task by input order re-raises after the effects of
      the tasks preceding it; later tasks' results and effects are dropped.

    Nested [map] calls from inside a task run inline on the worker. *)

type task

val index : task -> int
val rng : task -> Rng.t
(** Per-task deterministic RNG, a pure function of [(seed, index)]. *)

val defer : task -> (unit -> unit) -> unit
(** Buffer a side effect (e.g. a trace emission); runs on the calling domain
    during the input-order replay phase. *)

val charge : task -> Vclock.stage -> float -> unit
(** Buffer a virtual-clock charge against [map]'s [?clock]; replayed in
    input order so clock observers fire deterministically. *)

val map :
  ?jobs:int -> ?seed:int -> ?clock:Vclock.t -> (task -> 'a -> 'b) -> 'a list -> 'b list
(** [map f inputs] with results in input order. [jobs] defaults to
    {!jobs}[ ()]; [seed] (default 0) derives the per-task RNGs; [clock]
    receives the replayed {!charge}s.

    The effective job count is additionally clamped to {!get_max_domains}
    (default [Domain.recommended_domain_count ()]): oversubscribed domains
    cannot run concurrently but still join every stop-the-world collection,
    so on a single-core host [jobs > 1] degrades to inline execution — with
    identical observable behaviour, by the replay contract. Helper domains
    are spawned per call and joined before [map] returns; idle parked
    domains were measured to slow unrelated serial code 20-100x. *)

val jobs : unit -> int
(** The process default used when [map]'s [?jobs] is omitted: last
    {!set_jobs} value, else [XPILER_JOBS], else 1. *)

val set_jobs : int -> unit

val get_max_domains : unit -> int
(** Cap on real worker domains per [map]: last {!set_max_domains} value,
    else [XPILER_MAX_DOMAINS], else [Domain.recommended_domain_count ()]. *)

val set_max_domains : int -> unit
(** Override the domain cap — tests use this to force cross-domain execution
    even on a single-core host. *)

(** {2 Self-stats}

    The pool keeps wall-clock usage counters for the observability layer,
    which pulls them at snapshot time ([Obs.Metrics] cannot be called from
    here without a dependency cycle). All values are schedule-dependent:
    identical *results* across job counts, but busy/wall seconds and latency
    buckets differ run to run. *)

val latency_bounds : float array
(** Upper bounds (seconds, inclusive) of the task-latency histogram buckets;
    [latency_counts] has one extra trailing overflow bucket. *)

type stats = {
  maps : int;  (** completed [map] calls *)
  tasks : int;  (** tasks executed across all maps *)
  busy_seconds : float;  (** sum of per-task wall time across all domains *)
  wall_seconds : float;  (** sum of wall time of the [map] calls themselves *)
  max_jobs : int;  (** largest effective job count seen *)
  latency_counts : int array;  (** per-bucket task counts, plus overflow *)
  latency_min : float;  (** fastest task, seconds; 0 before the first task *)
  latency_max : float;  (** slowest task, seconds; 0 before the first task *)
}

val stats : unit -> stats
val reset_stats : unit -> unit
