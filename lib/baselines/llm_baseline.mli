open Xpiler_machine
open Xpiler_ops

(** Single-shot LLM baselines (GPT-4 / OpenAI o1, zero- and few-shot):
    whole-program translation in one prompt, no decomposition, no repair. *)

type method_ = Gpt4_zero | Gpt4_few | O1_zero | O1_few

val method_name : method_ -> string

type result = {
  compiles : bool;
  computes : bool;
  fault_categories : Xpiler_neural.Fault.category list;
      (** categories of the faults present in the output (Table 2) *)
  compile_errors : [ `Parallelism | `Memory | `Instruction | `Structural ] list;
}

val translate :
  ?seed:int ->
  method_ ->
  src:Platform.id ->
  dst:Platform.id ->
  op:Opdef.t ->
  shape:Opdef.shape ->
  result
