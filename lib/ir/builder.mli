(** Convenience constructors for building IR programs. *)

val for_ : ?kind:Stmt.loop_kind -> string -> ?lo:Expr.t -> Expr.t -> Stmt.t list -> Stmt.t
(** [for_ v extent body] builds a serial loop [for v in [0, extent)]. *)

val par_for : Axis.t -> string -> Expr.t -> Stmt.t list -> Stmt.t
val let_ : string -> Expr.t -> Stmt.t
val assign : string -> Expr.t -> Stmt.t
val store : string -> Expr.t -> Expr.t -> Stmt.t
val alloc : ?dtype:Dtype.t -> string -> Scope.t -> int -> Stmt.t
val if_ : Expr.t -> ?else_:Stmt.t list -> Stmt.t list -> Stmt.t
val memcpy : dst:string -> dst_off:Expr.t -> src:string -> src_off:Expr.t -> Expr.t -> Stmt.t
val sync : Stmt.t

val intrin :
  Intrin.op ->
  dst:string * Expr.t ->
  ?srcs:(string * Expr.t) list ->
  Expr.t list ->
  Stmt.t

val buffer : ?dtype:Dtype.t -> string -> Kernel.param
val scalar : ?dtype:Dtype.t -> string -> Kernel.param
