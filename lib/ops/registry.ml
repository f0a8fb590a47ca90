let all =
  [ Defs_basic.gemm; Defs_basic.gemv; Defs_basic.batch_gemm; Defs_basic.conv1d;
    Defs_basic.conv2d_nhwc; Defs_basic.conv2d_nchw; Defs_basic.depthwise_conv;
    Defs_basic.relu; Defs_llm.softmax; Defs_basic.gelu; Defs_basic.sigmoid; Defs_basic.add;
    Defs_basic.sign; Defs_basic.maxpool; Defs_basic.avgpool; Defs_basic.minpool;
    Defs_basic.sumpool; Defs_llm.layernorm; Defs_llm.deformable_attention;
    Defs_llm.self_attention; Defs_llm.rmsnorm ]

let find name = List.find_opt (fun (o : Opdef.t) -> String.equal o.name name) all

let find_exn name =
  match find name with
  | Some o -> o
  | None -> invalid_arg ("Registry.find_exn: unknown operator " ^ name)

type case = { op : Opdef.t; shape : Opdef.shape; case_id : string }

let case_id (op : Opdef.t) shape =
  Printf.sprintf "%s@%s" op.name
    (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) shape))

let cases () =
  List.concat_map
    (fun (op : Opdef.t) ->
      List.map (fun shape -> { op; shape; case_id = case_id op shape }) op.shapes)
    all
