open Xpiler_ir
(** Flat tensor buffers used by the interpreter and the test harness.

    All element types are stored as [float array]; integer dtypes hold exact
    small integers (|v| < 2^53). F16 is treated as F32 numerically — the
    accuracy experiments compare against references computed the same way, so
    precision modelling is not needed. *)

type t = { dtype : Dtype.t; data : float array }

val create : ?dtype:Dtype.t -> int -> t
(** Zero-initialized. *)

val of_array : ?dtype:Dtype.t -> float array -> t
val length : t -> int
val get : t -> int -> float
val set : t -> int -> float -> unit
val fill : t -> float -> unit
val copy : t -> t
val blit : src:t -> dst:t -> unit

val random : Xpiler_util.Rng.t -> ?dtype:Dtype.t -> int -> t
(** Uniform values: floats in [-1, 1); ints in [-8, 8). *)

val allclose : ?rtol:float -> ?atol:float -> t -> t -> bool
val max_abs_diff : t -> t -> float

val mismatch_count : ?rtol:float -> ?atol:float -> t -> t -> int
(** Number of elements where the two tensors differ beyond tolerance; the
    longer length when the lengths differ (the repair mismatch score). *)

val to_string : ?max_elems:int -> t -> string
