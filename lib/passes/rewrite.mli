open Xpiler_ir

(** Shared rewriting machinery for the transformation passes. *)

val rewrite_loop :
  string -> (var:string -> lo:Expr.t -> extent:Expr.t -> kind:Stmt.loop_kind ->
             body:Stmt.t list -> Stmt.t list) ->
  Stmt.t list -> Stmt.t list option
(** Rewrite the first [For] loop with the given variable. *)

val count_matching : (Stmt.t -> bool) -> Stmt.t list -> int
val rewrite_nth :
  int -> (Stmt.t -> bool) -> (Stmt.t -> Stmt.t) -> Stmt.t list -> Stmt.t list
(** Replace the [n]-th (0-based) statement satisfying the predicate,
    numbering matches in {!Stmt.map_block}'s callback order (post-order,
    left to right: matching leaves in source order). Statements off the
    path to the match come back physically. *)

val const_extent : Expr.t -> (int, string) result
(** Loop extents the passes reshape must be compile-time constants. *)

val fresh_serial_names : Kernel.t -> unit -> string
(** A generator of [i0, i1, ...] skipping every name already used in the
    kernel: each call returns the next one. The kernel is scanned on the
    first call. *)

val buffer_dtype : Kernel.t -> string -> Dtype.t option
(** Element type of a parameter or allocated buffer. *)

val inline_leading_lets : Stmt.t list -> Stmt.t list
(** Substitute leading scalar [Let]s into the remainder of the block (used
    when fissioning barrier regions during loop recovery). *)
