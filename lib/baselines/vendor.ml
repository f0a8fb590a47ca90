open Xpiler_machine
open Xpiler_ops
module Mcts = Xpiler_tuning.Mcts

let advantage (op : Opdef.t) =
  match op.Opdef.cls with
  | Opdef.Matmul -> 1.35
  | Opdef.Convolution -> 1.25
  | Opdef.Pooling -> 1.10
  | Opdef.Activation -> 0.95
  | Opdef.Elementwise -> 0.90
  | Opdef.Llm -> (
    (* the long tail: vendor support is weakest for emerging operators *)
    match op.Opdef.name with
    | "deformable_attention" -> 0.50
    | "rmsnorm" -> 0.60
    | "self_attention" -> 0.75
    | _ -> 0.70)

(* the vendor library's engineers also tune their schedules: the baseline is
   the expert kernel after the same search the transcompiler gets *)
let tuned_cache : (string, float) Hashtbl.t Xpiler_util.Session.t =
  Xpiler_util.Session.make (fun () -> Hashtbl.create 64)

let tuned_expert_seconds pid (op : Opdef.t) shape =
  let key =
    Printf.sprintf "%s/%s/%s" (Platform.id_to_string pid) op.Opdef.name
      (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) shape))
  in
  let tuned_cache = Xpiler_util.Session.get tuned_cache in
  match Hashtbl.find_opt tuned_cache key with
  | Some s -> s
  | None ->
    let platform = Platform.of_id pid in
    let expert = Idiom.source pid op shape in
    let base = (Costmodel.estimate platform expert ~shapes:[]).Costmodel.seconds in
    let buffer_sizes =
      List.map (fun (b : Opdef.buffer_spec) -> (b.buf_name, b.size shape)) op.Opdef.buffers
    in
    let config = { Mcts.default_config with simulations = 32; max_depth = 6 } in
    let r = Mcts.search ~config ~buffer_sizes ~platform expert in
    let tuned =
      (Costmodel.estimate platform r.Mcts.best_kernel ~shapes:[]).Costmodel.seconds
    in
    let s = Float.min base tuned in
    Hashtbl.replace tuned_cache key s;
    s

let seconds pid op shape = tuned_expert_seconds pid op shape /. advantage op

let speedup_of_translated pid op shape kernel =
  let platform = Platform.of_id pid in
  let t = (Costmodel.estimate platform kernel ~shapes:[]).Costmodel.seconds in
  seconds pid op shape /. t
