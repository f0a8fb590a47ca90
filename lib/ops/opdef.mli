open Xpiler_ir

(** Operator definitions for the evaluation suite (Table 5).

    Every operator carries a canonical *sequential* kernel builder with the
    shape baked in as constants; that kernel is simultaneously (a) the
    numerical reference for unit tests, (b) the starting point from which
    idiomatic per-platform sources are derived by golden pass pipelines, and
    (c) the thing the transcompiler's correctness is judged against. *)

type op_class = Matmul | Convolution | Activation | Pooling | Elementwise | Llm

type shape = (string * int) list

type buffer_spec = {
  buf_name : string;
  dtype : Dtype.t;
  size : shape -> int;
  is_output : bool;
}

type t = {
  name : string;
  cls : op_class;
  shapes : shape list;  (** the 8 evaluated shapes *)
  buffers : buffer_spec list;
  serial : shape -> Kernel.t;
  flops : shape -> float;
}

val dim : shape -> string -> int
(** Raises [Not_found] with the dimension name for missing dims. *)

val class_name : op_class -> string
val outputs : t -> buffer_spec list
