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
(** Replace the [n]-th (0-based, traversal order) statement satisfying the
    predicate. *)

val const_extent : Expr.t -> (int, string) result
(** Loop extents the passes reshape must be compile-time constants. *)

val fresh_serial_names : Kernel.t -> int -> string list
(** [i0, i1, ...] avoiding every name already used in the kernel. *)

val buffer_dtype : Kernel.t -> string -> Dtype.t option
(** Element type of a parameter or allocated buffer. *)

val inline_leading_lets : Stmt.t list -> Stmt.t list
(** Substitute leading scalar [Let]s into the remainder of the block (used
    when fissioning barrier regions during loop recovery). *)
