(** Memory scopes across the four deep learning systems.

    Each platform exposes a subset (Table 1 of the paper): GPUs have
    global/shared/registers, the MLU adds NRAM/WRAM neuron/weight memories,
    and the VNNI CPU only sees host memory plus registers. *)

type t =
  | Global  (** device DRAM (GDRAM on the MLU) *)
  | Shared  (** GPU per-block shared memory / MLU __mlu_shared__ *)
  | Local  (** registers / per-thread local storage *)
  | Nram  (** MLU neuron RAM *)
  | Wram  (** MLU weight RAM *)
  | Host  (** plain CPU memory *)
  | Fragment  (** tensor/matrix-core fragment registers *)

val to_string : t -> string
val equal : t -> t -> bool

val is_on_chip : t -> bool
(** True for scopes that live in fast on-chip storage (everything except
    [Global] and [Host]). *)
