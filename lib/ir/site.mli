(** Repair sites: the statements the SMT repairer may change.

    A site is a constant intrinsic or memcpy length ([Param]), a constant
    serial loop extent ([Bound]) or a store's index ([Index]). Sites of each
    kind are numbered from 0 in post-order: children before their parent,
    left to right, a conditional's [then_] branch before its [else_]. The
    static analyzer, bug localization and the repairer all name sites
    through this module, so a site one of them reports is the statement the
    others change. *)

type t =
  | Param of { nth : int; current : int }
      (** the [nth] intrinsic/memcpy with a constant leading length *)
  | Bound of { nth : int; var : string; current : int }
      (** the [nth] serial loop with a constant extent *)
  | Index of { nth : int; buf : string }  (** the [nth] store *)

val walk : Kernel.t -> (t * Stmt.t) list
(** Every site with its statement: params, then bounds, then store indices,
    each kind in numbering order. *)

val stmt : Kernel.t -> t -> Stmt.t option
(** The statement a site numbers; [None] when the kernel has fewer sites of
    that kind. *)

val set : Kernel.t -> t -> int -> Kernel.t
(** [set k site v] sets a param's length or a bound's extent to [v], or adds
    [v] to a store's index (linearly normalized). Every other statement is
    left as it is. *)

val to_string : t -> string
(** [param#N (=V)], [bound#N var (=V)] or [index#N -> buf]; repair journals
    carry these strings. *)
