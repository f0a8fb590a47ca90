open Xpiler_ir

(** Sequentialization / parallelization passes (Table 4, category 1). *)

exception Failed of string
(** Internal control flow of the passes; every public function catches it and
    returns [Error] instead. *)

val recovery : Kernel.t -> (Kernel.t, string) result
(** Convert every parallel loop into ordinary sequential loops ("from CUDA C
    to C"). Barrier regions are handled by lockstep-preserving fission: a
    thread loop whose body contains [Sync]s is split at each barrier into
    consecutive loops; a barrier nested inside a serial sub-loop is reached
    by first interchanging the thread loop inside it. The launch
    configuration is cleared and axis variables get plain serial names. *)

val bind : var:string -> axis:Axis.t -> Kernel.t -> (Kernel.t, string) result
(** Bind a sequential loop to a parallel built-in; the loop variable is
    renamed to the axis name and the launch configuration is extended. *)

val split : var:string -> factor:int -> Kernel.t -> (Kernel.t, string) result
(** [for v in E] becomes [for v_0 in E/f { for v_1 in f }]; a bounds guard is
    inserted when [f] does not divide [E]. *)

val fuse : var:string -> Kernel.t -> (Kernel.t, string) result
(** Merge the perfect nest [for v { for w }] into one loop over [E_v * E_w]
    (the paper's hyper-loop). *)

val reorder : var:string -> Kernel.t -> (Kernel.t, string) result
(** Interchange [for v { for w }] to [for w { for v }]; the nest must be
    perfect. *)

val interchange_legal : v1:string -> e1:int -> v2:string -> e2:int -> Stmt.t list -> bool
(** Whether swapping the loops [v1 < e1] (outer) and [v2 < e2] around [body]
    keeps what it computes: the box has at most 4,096 points; no store hits
    one address from two iterations (every other variable at 0); and a
    buffer that is stored and read is read only at the linear-equal index
    of its first store. One walk collects the stores and loads; a buffer
    with one store whose index is affine in plain variables is decided in
    closed form, any other enumerates the box. {!reorder} applies it. *)

val expansion : var:string -> Kernel.t -> (Kernel.t, string) result
(** Loop fission: distribute the loop over its body's statement groups (each
    group is one writing statement plus the scalar definitions before it). *)

val contraction : var:string -> Kernel.t -> (Kernel.t, string) result
(** Merge consecutive loops with identical headers named [var] back into a
    single loop (producer folded into the consumer's body). *)
