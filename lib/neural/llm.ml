open Xpiler_ir
open Xpiler_machine
module Rng = Xpiler_util.Rng
module Vclock = Xpiler_util.Vclock
module Trace = Xpiler_obs.Trace
module Metrics = Xpiler_obs.Metrics
module Pass = Xpiler_passes.Pass

type t = { rng : Rng.t; clock : Vclock.t option }

let create ~seed ?clock () = { rng = Rng.create seed; clock }

type translation = Garbage | Translated of Kernel.t * Fault.injected list

let charge t stage seconds =
  match t.clock with Some c -> Vclock.charge c stage seconds | None -> ()

(* an LLM call costs time proportional to program size *)
let llm_call_seconds kernel =
  let stmts = Stmt.count_stmts kernel.Kernel.body in
  90.0 +. (float_of_int stmts *. 8.0)

let severity_name = function Fault.Structural -> "structural" | Fault.Detail -> "detail"

(* Stable: the simulated LLM runs on the master domain; attempt and garbage
   counts are a pure function of workload and seed. *)
let m_attempts =
  Metrics.counter ~help:"simulated LLM calls (translate + pass application)"
    ~trace:"llm.attempts" "xpiler_llm_attempts_total"

let m_garbage =
  Metrics.counter ~help:"LLM responses discarded as garbage" ~trace:"llm.garbage"
    "xpiler_llm_garbage_total"

let record_faults faults =
  List.iter
    (fun (f : Fault.injected) ->
      Trace.count
        (Printf.sprintf "fault.%s.%s" (severity_name f.Fault.severity)
           (Fault.category_name f.Fault.category)))
    faults

let sample_faults rng ~target (p : Profile.t) kernel =
  let try_inject (kernel, faults) prob severity category =
    if Rng.bernoulli rng prob then
      match Fault.inject rng ~target severity category kernel with
      | Some (k', f) -> (k', f :: faults)
      | None -> (kernel, faults)
    else (kernel, faults)
  in
  let acc = (kernel, []) in
  let acc = try_inject acc p.Profile.structural_parallel Fault.Structural Fault.Parallelism in
  let acc = try_inject acc p.Profile.structural_memory Fault.Structural Fault.Memory in
  let acc = try_inject acc p.Profile.structural_instruction Fault.Structural Fault.Instruction in
  let acc =
    let k, faults = acc in
    if Rng.bernoulli rng p.Profile.detail_bound then
      match Fault.inject_bound rng k with Some (k', f) -> (k', f :: faults) | None -> (k, faults)
    else acc
  in
  let acc =
    let k, faults = acc in
    if Rng.bernoulli rng p.Profile.detail_index then
      match Fault.inject_index rng k with Some (k', f) -> (k', f :: faults) | None -> (k, faults)
    else acc
  in
  let k, faults =
    let k, faults = acc in
    if Rng.bernoulli rng p.Profile.detail_param then
      match Fault.inject_param rng k with Some (k', f) -> (k', f :: faults) | None -> (k, faults)
    else acc
  in
  let faults = List.rev faults in
  record_faults faults;
  (k, faults)

let translate_program t ~profile ~src ~dst ~op ~shape =
  let difficulty = Profile.direction_difficulty ~src ~dst in
  let p = Profile.scale profile difficulty in
  let target = Platform.of_id dst in
  (* the ground-truth sketch: the idiomatic target program *)
  let truth = Xpiler_ops.Idiom.source dst op shape in
  Metrics.inc m_attempts;
  charge t Vclock.Llm_transform (llm_call_seconds truth);
  if Rng.bernoulli t.rng p.Profile.gives_up then begin
    Metrics.inc m_garbage;
    Garbage
  end
  else begin
    let k, faults = sample_faults t.rng ~target p truth in
    Translated (k, faults)
  end

let apply_pass t ~profile ~target ?prompt spec kernel =
  match Pass.apply ~platform:target spec kernel with
  | Error m -> Error m
  | Ok transformed ->
    Metrics.inc m_attempts;
    charge t Vclock.Llm_transform (llm_call_seconds transformed);
    (* a richer prompt (manual references present) reduces fault rates *)
    let quality =
      match prompt with
      | Some mp when mp.Meta_prompt.examples <> [] -> 0.8
      | Some _ -> 1.0
      | None -> 1.2
    in
    let p = Profile.scale profile quality in
    Ok (sample_faults t.rng ~target p transformed)
