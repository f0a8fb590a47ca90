open Xpiler_ir

(** SMT-lite: a finite-domain constraint solver over integer expressions.

    Z3 is not available in this environment, so the fragment QiMeng-Xpiler
    actually needs — small conjunctions of (in)equalities over loop bounds,
    affine indices and intrinsic parameters (paper Figure 5) — is solved by
    backtracking enumeration with eager partial evaluation. Constraints are
    ordinary IR expressions treated as booleans (non-zero = true), so SMT
    queries read exactly like the paper's examples:
    [(i1 * 4 + i2 == i) && (0 <= i2) && (i2 < 4)].

    Two engines share the entry points: the default incremental engine
    (domains materialized once per problem, slot-indexed array environment,
    constraints simplified once and indexed by last-bound variable so each
    assignment step evaluates only newly-fully-bound constraints) and the
    retained naive reference they are differentially fuzzed against.
    Incremental solves are additionally memoized in the session's {!Memo},
    with effect receipts keeping cold and warm runs observably
    byte-identical. *)

type domain = Problem.domain =
  | Range of { lo : int; hi : int; stride : int }  (** lo, lo+stride, ..., <= hi *)
  | Enum of int list

type problem = Problem.t = {
  vars : (string * domain) list;  (** assignment order = listed order *)
  constraints : Expr.t list;  (** conjunction; may mention only [vars] *)
}

type stats = Problem.stats = { steps : int; evals : int }

type outcome = Problem.outcome =
  | Sat of (string * int) list
  | Unsat
  | Timeout

val domain_values : domain -> int list

val divisors : int -> int list
(** All positive divisors, ascending — the natural domain of tiling
    factors. O(√n) paired enumeration. *)

val solve : ?max_steps:int -> problem -> outcome * stats
(** [max_steps] bounds assignment attempts (default 2_000_000). The returned
    model satisfies every constraint (checked before returning). *)

val solve_all : ?max_steps:int -> ?limit:int -> problem -> (string * int) list list
(** All models, up to [limit] (default 64), in enumeration order. *)

val forall_range : string -> lo:int -> hi:int -> Expr.t -> Expr.t
(** [forall_range i ~lo ~hi body] expands a bounded universal quantifier into
    a conjunction by substituting each value of [i] in [lo, hi). *)

(** {2 Engine selection and work meters (benches, tests)} *)

type engine =
  | Incremental  (** default: prepared problems + the session's memo *)
  | Naive  (** the pre-overhaul engine; bypasses the memo *)

val with_engine : engine -> (unit -> 'a) -> 'a
(** Run the function with this session's solver engine set, restoring the
    previous engine on exit. *)

type work = {
  fresh_solves : int;
  fresh_steps : int;
  fresh_evals : int;
  fresh_wall : float;  (** wall seconds inside fresh searches *)
}

val work_totals : unit -> work
(** Real search work under either engine; memo hits do not count. One meter
    for both bench arms, like the transposition table's eval counter. The
    counts are the unstable registry counters
    [xpiler_smt_fresh_{solves,steps,evals}_total] (zeroed only by
    [Metrics.reset]) and the wall is the [Obs.Prof] row [smt.search];
    readers take before/after deltas. *)

val solve_naive : ?max_steps:int -> problem -> outcome * stats
(** The naive reference, silent (no metrics/trace/memo) — the differential
    oracle for property tests. *)

val solve_all_naive :
  ?max_steps:int -> ?limit:int -> problem -> (string * int) list list * stats
