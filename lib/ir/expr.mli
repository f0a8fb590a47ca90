(** Scalar expressions of the tensor-program IR.

    Expressions are untyped at the syntax level (as in C source); the machine
    checker infers and checks types. Buffer accesses use flat 1-D indexing,
    matching the linearized address arithmetic of the paper's examples. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div  (** C integer division semantics for ints, IEEE for floats *)
  | Mod
  | Min
  | Max
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type unop = Neg | Not | Exp | Log | Sqrt | Rsqrt | Tanh | Erf | Abs | Recip | Floor

type t =
  | Int of int
  | Float of float
  | Var of string
  | Load of string * t  (** [Load (buf, index)] reads [buf[index]] *)
  | Binop of binop * t * t
  | Unop of unop * t
  | Select of t * t * t  (** [Select (cond, then_, else_)] *)
  | Cast of Dtype.t * t

val equal : t -> t -> bool
(** Structural equality. Float literals compare by bit pattern, so [0.0]
    and [-0.0] differ (they divide to opposite infinities). A shared
    subtree ([a == b]) is equal without a walk. *)

val hash : t -> int
(** Full-depth structural hash, consistent with [equal] (unlike the
    polymorphic [Hashtbl.hash], which truncates deep terms). *)

val hash_fold : int -> t -> int
(** [hash_fold h e] mixes [e]'s structure into accumulator [h]; building
    block for the [Stmt]/[Kernel] hashes. *)

(** The underlying accumulator mix, exposed so the other IR hashes compose
    with the same function. *)
val hash_comb : int -> int -> int
val compare : t -> t -> int

val map : (t -> t option) -> t -> t
(** [map f e] rewrites [e] bottom-up: at each node [n] (after children were
    rewritten), if [f n] is [Some n'] the node is replaced by [n']. A node
    whose children are unchanged and which [f] declines is returned as is,
    so [map (fun _ -> None) e == e]. *)

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Pre-order fold over every sub-expression. *)

val free_vars : t -> string list
(** Variables read by [e], without duplicates, in first-occurrence order. *)

val buffers_read : t -> string list
(** Buffers loaded from, without duplicates. *)

val subst_var : string -> t -> t -> t
(** [subst_var x v e] replaces every [Var x] in [e] by [v]. *)

val rename_buffer : old_name:string -> new_name:string -> t -> t
val contains_var : string -> t -> bool

val contains_load : string -> t -> bool
(** [contains_load b e]: [e] loads from buffer [b]. Allocates nothing. *)

val eval_int : (string -> int) -> t -> int
(** Evaluate an integer expression given a variable environment. Raises
    [Failure] on float literals, loads, or unbound variables. *)

val simplify : t -> t
(** Constant folding plus basic algebraic identities ([x+0], [x*1], [x*0],
    [x/1], flattening of nested constant additions, …). Keeps C integer
    division/modulo semantics intact and never changes a value: [x && 1]
    and [x || 0] drop to [x] only when [x] is a comparison or a logical
    operator, and a float cast of an int literal folds to a float literal.
    An expression it leaves unchanged comes back physically ([==]). *)

val to_string : t -> string
(** C-like rendering, used by all dialect code generators. *)

val pp : Format.formatter -> t -> unit

(** Infix construction helpers. *)
module Infix : sig
  val int : int -> t
  val flt : float -> t
  val v : string -> t
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( % ) : t -> t -> t
  val ( < ) : t -> t -> t
  val ( <= ) : t -> t -> t
  val ( > ) : t -> t -> t
  val ( >= ) : t -> t -> t
  val ( = ) : t -> t -> t
  val ( && ) : t -> t -> t
  val ( || ) : t -> t -> t
  val load : string -> t -> t
end
