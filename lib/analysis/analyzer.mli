open Xpiler_ir

(** IR-level static analyzer: race, barrier, bounds and def-use checking.

    Runs as a pre-validation stage before the interpreter-based unit test.
    Every [Error]-severity finding is backed by an interval proof or a
    concrete witness from the bounded SMT solver; anything undecidable is
    passed through silently so the dynamic unit test stays the authority.
    Golden manual kernels and idiom sources must produce no findings. *)

type check = Race | Barrier_divergence | Out_of_bounds | Uninit_read

type finding = {
  check : check;
  diag : Diag.t;  (** shared diagnostic record (same as [Checker.error]) *)
  buffers : string list;  (** buffers implicated, for localization *)
  sites : Site.t list;  (** candidate repair sites, best first *)
}

val check_name : check -> string
(** ["race"], ["barrier-divergence"], ["out-of-bounds"] or ["uninit-read"]. *)

val finding_to_string : finding -> string

val analyze : ?extents:(string * int) list -> Kernel.t -> finding list
(** Run all four checks. [extents] gives element counts of kernel parameter
    buffers (on-chip allocation sizes are read from the body); accesses to
    buffers with unknown extents are not bounds-checked. The analyzer emits
    no trace events: the pipeline's per-pass validation counts each finding
    as [analyzer.<error|warning>.<check>]. Its solver queries are metered
    by the solver memo. *)

val errors : finding list -> finding list
(** Only the [Error]-severity findings. *)
