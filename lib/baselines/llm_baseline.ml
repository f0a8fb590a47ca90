open Xpiler_machine
open Xpiler_ops
open Xpiler_neural

type method_ = Gpt4_zero | Gpt4_few | O1_zero | O1_few

let method_name = function
  | Gpt4_zero -> "GPT-4 Zero-Shot"
  | Gpt4_few -> "GPT-4 Few-Shot"
  | O1_zero -> "OpenAI o1 Zero-Shot"
  | O1_few -> "OpenAI o1 Few-Shot"

let profile = function
  | Gpt4_zero -> Profile.gpt4_zero_shot
  | Gpt4_few -> Profile.gpt4_few_shot
  | O1_zero -> Profile.o1_zero_shot
  | O1_few -> Profile.o1_few_shot

type result = {
  compiles : bool;
  computes : bool;
  fault_categories : Fault.category list;
  compile_errors : [ `Parallelism | `Memory | `Instruction | `Structural ] list;
}

let translate ?(seed = 20250706) m ~src ~dst ~op ~shape =
  let case_seed =
    Hashtbl.hash
      (seed, method_name m, Platform.id_to_string src, Platform.id_to_string dst,
       op.Opdef.name, shape)
  in
  let llm = Llm.create ~seed:case_seed () in
  match Llm.translate_program llm ~profile:(profile m) ~src ~dst ~op ~shape with
  | Llm.Garbage ->
    { compiles = false;
      computes = false;
      fault_categories = [];
      compile_errors = [ `Structural ]
    }
  | Llm.Translated (k, faults) ->
    let target = Platform.of_id dst in
    let compile = Checker.compile target k in
    let compiles = compile = Ok () in
    let computes =
      compiles && Unit_test.check ~trials:2 op shape k = Unit_test.Pass
    in
    { compiles;
      computes;
      fault_categories = List.map (fun (f : Fault.injected) -> f.category) faults;
      compile_errors =
        (match compile with
        | Ok () -> []
        | Error es -> List.map (fun (e : Checker.error) -> e.category) es)
    }
