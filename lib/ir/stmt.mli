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

val equal_block : t list -> t list -> bool

val hash_fold : int -> t -> int
(** Full-depth structural hash folded into a seed, consistent with
    structural equality. *)

val hash_fold_block : int -> t list -> int

val map_exprs : (Expr.t -> Expr.t) -> t -> t
(** Rewrite every expression in the statement tree (loop bounds, indices,
    conditions, intrinsic offsets/params, …). *)

val map_block : (t -> t option) -> t list -> t list
(** Bottom-up statement rewriting: each statement (children already
    rewritten) may be replaced. *)

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
    (does not cross a rebinding of the same name). *)

val rename_buffer : old_name:string -> new_name:string -> t list -> t list

val simplify : t list -> t list
(** Simplify all expressions; drop ifs with constant conditions and loops
    with zero extent. *)

val to_string : ?indent:int -> t list -> string
(** Dialect-neutral rendering for debugging and golden tests. *)
