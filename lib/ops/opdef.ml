open Xpiler_ir

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
  shapes : shape list;
  buffers : buffer_spec list;
  serial : shape -> Kernel.t;
  flops : shape -> float;
}

let dim sh name =
  match List.assoc_opt name sh with
  | Some v -> v
  | None -> raise (Not_found)

let class_name = function
  | Matmul -> "MatMul"
  | Convolution -> "Convolution"
  | Activation -> "Activation"
  | Pooling -> "Pooling"
  | Elementwise -> "Elementwise"
  | Llm -> "LLM"

let outputs t = List.filter (fun b -> b.is_output) t.buffers
