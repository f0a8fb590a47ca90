(** Unified specialized-intrinsic operations.

    Each platform maps a subset of these semantic operations to its concrete
    intrinsic spelling ([__bang_add], [wmma::mma_sync],
    [_mm512_dpbusd_epi32], …). Keeping the semantics unified lets the
    tensorize/detensorize passes and the interpreter share one definition
    while code generators pick the platform-specific surface form. *)

type op =
  | Vec_add
  | Vec_sub
  | Vec_mul
  | Vec_max
  | Vec_min
  | Vec_exp
  | Vec_log
  | Vec_sqrt
  | Vec_recip
  | Vec_tanh
  | Vec_erf
  | Vec_relu  (** dst[i] = max(src[i], 0) *)
  | Vec_sigmoid  (** dst[i] = 1 / (1 + exp(-src[i])) *)
  | Vec_gelu  (** dst[i] = 0.5 src[i] (1 + erf(src[i] / sqrt 2)) *)
  | Vec_sign  (** dst[i] = -1, 0 or 1 *)
  | Vec_scale  (** dst[i] = src[i] * scalar *)
  | Vec_adds  (** dst[i] = src[i] + scalar *)
  | Vec_fill  (** dst[i] = scalar *)
  | Vec_copy
  | Vec_reduce_sum  (** dst[0] = sum src[0..len) *)
  | Vec_reduce_max
  | Mma  (** fragment matmul-accumulate: dst[m,n] += a[m,k] * b[k,n] *)
  | Mlp  (** MLU matmul: dst[m,n] += a[m,k] * w[k,n] (weights in WRAM) *)
  | Conv2d  (** MLU convolution intrinsic *)
  | Dp4a  (** VNNI: 4-wide i8 dot product groups accumulated into i32 *)

(** A buffer operand: base buffer plus element offset. *)
type buf_ref = { buf : string; offset : Expr.t }

(** An intrinsic call. [params] meaning depends on [op]:
    - vector ops: [ length ]
    - [Vec_scale]/[Vec_adds]/[Vec_fill]: [ length; scalar ]
    - [Mma]/[Mlp]: [ m; k; n ]
    - [Conv2d]: [ co; ci; kh; kw; ho; wo; stride ]
    - [Dp4a]: [ length ] (length divisible by 4) *)
type t = { op : op; dst : buf_ref; srcs : buf_ref list; params : Expr.t list }

val op_name : op -> string
val equal_op : op -> op -> bool
val equal : t -> t -> bool

val hash_fold : int -> t -> int
(** Full-depth structural hash folded into a seed, consistent with [equal]. *)

val arity : op -> int
(** Number of source buffers the op expects. *)

val param_count : op -> int
val is_vector : op -> bool
val is_matrix : op -> bool

val map_exprs : (Expr.t -> Expr.t) -> t -> t
(** Apply a rewriting function to every expression (offsets and params). *)

val buffers : t -> string list
(** All buffers touched (dst first), without duplicates. *)

val to_string : t -> string
