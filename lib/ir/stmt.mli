(** Statements of the tensor-program IR.

    A program is a list of statements. Scalar declarations ([Let]) and buffer
    allocations ([Alloc]) scope to the end of the enclosing block, matching C
    semantics, so the dialect parsers can translate source text directly. *)

type loop_kind =
  | Serial
  | Parallel of Axis.t  (** bound to a platform parallel built-in *)
  | Unrolled
  | Vectorized
  | Pipelined  (** software-pipelined with double buffering *)

type t =
  | For of { var : string; lo : Expr.t; extent : Expr.t; kind : loop_kind; body : t list }
  | Let of { var : string; value : Expr.t }  (** scalar declaration *)
  | Assign of { var : string; value : Expr.t }  (** scalar mutation *)
  | Store of { buf : string; index : Expr.t; value : Expr.t }
  | Alloc of { buf : string; scope : Scope.t; dtype : Dtype.t; size : int }
  | If of { cond : Expr.t; then_ : t list; else_ : t list }
  | Memcpy of { dst : Intrin.buf_ref; src : Intrin.buf_ref; len : Expr.t }
      (** bulk copy of [len] elements; direction is implied by buffer scopes *)
  | Intrinsic of Intrin.t
  | Sync  (** barrier across the parallel workers of one block/cluster *)
  | Annot of { key : string; value : string }
      (** semantic marker inserted by program annotation (Algorithm 1);
          ignored by execution *)

(** {2 Sharing}

    Every rewrite below returns its argument physically ([==]) where it
    changes nothing, as {!Expr.map} does: a statement whose expressions
    and children come back [==] is returned as is, and so is a block whose
    statements and tail do. A rewrite that changes one statement rebuilds
    only the path from the root to it; the rest of the result shares the
    input. Callbacks run left to right in source order ([then_] before
    [else_]), a statement's children before the statement itself. *)

val equal : t -> t -> bool
(** Structural equality; [true] at once on a shared statement. *)

val equal_block : t list -> t list -> bool
(** Structural equality of blocks; [true] at once on a shared block or a
    shared tail. *)

val hash_fold : int -> t -> int
(** Full-depth structural hash folded into a seed, consistent with
    structural equality. *)

val hash_fold_block : int -> t list -> int

val map_exprs : (Expr.t -> Expr.t) -> t -> t
(** Rewrite the statement's own expressions: a [For]'s bounds, an [If]'s
    condition, a leaf's indices, values, offsets and intrinsic params. It
    does not descend into loop or branch bodies: a caller that rewrites a
    tree walks it itself (e.g. with {!map_block} or {!iter}), so each
    expression is visited once. [f] sees the expressions in source order
    ([lo] before [extent], [index] before [value], a [Memcpy]'s [dst]
    offset, [src] offset, then [len]); the statement comes back
    physically when every expression does. *)

val map_block : (t -> t option) -> t list -> t list
(** Bottom-up statement rewriting: each statement (children already
    rewritten) may be replaced. The callback sees the statements in
    post-order, left to right: a loop's body, or an [If]'s [then_] then its
    [else_], before the loop or the [If] itself, and a block's head before
    its tail. [Rewrite.rewrite_nth] numbers its matches in this order. A
    statement for which [f] returns [None] (or [Some] of its argument),
    and whose children come back physically, is kept as is, so
    [map_block (fun _ -> None) b == b] and allocates nothing. *)

val iter : (t -> unit) -> t list -> unit
(** Pre-order traversal of every statement in the block. *)

val fold : ('a -> t -> 'a) -> 'a -> t list -> 'a

val buffers_written : t list -> string list
val buffers_read : t list -> string list
val allocs : t list -> (string * Scope.t * Dtype.t * int) list

val loop_vars : t list -> string list
val axes_used : t list -> Axis.t list
val intrinsics : t list -> Intrin.t list
val has_sync : t list -> bool
val count_stmts : t list -> int
val max_loop_depth : t list -> int

val subst_var : string -> Expr.t -> t list -> t list
(** Substitute a scalar variable by an expression throughout a block
    (does not cross a rebinding of the same name). Statements that do not
    mention the variable come back physically; on a block that never
    mentions it the call returns its argument and allocates nothing. *)

val rename_buffer : old_name:string -> new_name:string -> t list -> t list
(** Rename a buffer in every store, load, allocation, copy and intrinsic
    operand. Statements that do not touch the buffer come back physically;
    on a block that never names it the call returns its argument and
    allocates nothing. *)

val simplify : t list -> t list
(** Simplify all expressions; drop ifs with constant conditions and loops
    with zero extent. Statements it leaves unchanged come back physically,
    so on an already simplified block ([simplify (simplify b)]) it returns
    its argument and allocates nothing. *)

val to_string : ?indent:int -> t list -> string
(** Dialect-neutral rendering for debugging and golden tests. *)
