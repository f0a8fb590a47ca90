(** Bench-history regression watchdog.

    Each bench run appends its headline numbers as one JSONL line to
    [results/history.jsonl]; later runs (and [xpiler bench-diff]) compare
    the current [BENCH_*.json] against the {e median} of matching history
    entries and flag configurable-threshold regressions.

    {b Noise classes.} Deterministic headline numbers (tuning eval
    reductions, resilience broken-kernel counts) are [Exact] and gated
    tightly; wall-clock-derived throughputs are [Wall] and get wide
    thresholds. The bench smoke gates self-check [Exact] metrics only —
    wall-clock numbers on shared CI would flake — while the [bench-diff]
    CLI checks everything. Smoke and full runs never compare against each
    other (entries match on [bench] {e and} [smoke]). *)

type entry = {
  bench : string;  (** ["eval"] | ["tuning"] | ["resilience"] | ["repair"] *)
  smoke : bool;
  time : float option;  (** unix seconds; omitted from comparisons *)
  metrics : (string * float) list;  (** sorted by name *)
}

val entry_to_json : entry -> Json.t
val entry_of_json : Json.t -> (entry, string) result

val default_path : string
(** ["results/history.jsonl"], relative to the bench working directory. *)

val append : ?path:string -> entry -> unit
(** Appends one line (creating the parent directory and file as needed). A
    whole entry is a single write, so concurrent bench rules interleave at
    line granularity. *)

val load : ?path:string -> unit -> (entry list, string) result
(** Missing file is [Ok \[\]]; a malformed line is an error naming it. *)

val of_bench_file : bench:string -> string -> (entry, string) result
(** Extract the headline metrics from a [BENCH_<bench>.json] report:
    eval → [geomean_speedup], geomean of per-kernel
    [compiled_elems_per_sec]; tuning → mean
    [eval_reduction], min [best_reward_ratio]; resilience →
    [total_ladder_broken], [total_seed_broken]; repair →
    [steps_reduction], [evals_reduction], [wall_speedup],
    [optimized_broken]. *)

(** {2 Regression specs} *)

type direction = Higher | Lower
type noise = Exact | Wall

type spec = {
  metric : string;
  direction : direction;  (** which way is better *)
  noise : noise;
  rel_threshold : float;  (** relative drop beyond which we fail *)
  abs_slack : float;  (** absolute change ignored regardless of ratio *)
  gated : bool;  (** recorded-only metrics never fail the diff *)
}

val specs : string -> spec list
(** Per bench name; unknown benches have no specs. *)

type verdict = {
  metric : string;
  current : float;
  baseline : float option;  (** median of matching history entries *)
  n_history : int;
  regressed : bool;
  detail : string;  (** human-readable explanation *)
}

val diff : ?threshold_scale:float -> ?exact_only:bool -> history:entry list -> entry -> verdict list
(** One verdict per spec'd metric present in [entry]. [threshold_scale]
    multiplies both the relative threshold and the absolute slack
    (CLI [--threshold]); [exact_only] (default false) skips [Wall]-noise
    metrics. No matching history → baseline [None], never regressed.

    {b Zero baselines.} When the history median is exactly [0.0] a relative
    drop is undefined; any worsening move is treated as an unbounded
    relative change, so it regresses iff the absolute drop exceeds
    [abs_slack] (scaled). Improvements and no-changes never regress. *)

val regressions : verdict list -> verdict list

val record : ?path:string -> ?exact_only:bool -> entry -> (verdict list, string) result
(** Diff the entry against the existing history, {e then} append it, and
    return the regressions (with [exact_only] defaulting to [true] — this
    is the self-check the bench smoke gates call before exiting). A
    corrupt/unreadable history file is an [Error] (nothing is appended):
    treating it as empty history would silently disarm the watchdog while
    growing the broken file. *)
