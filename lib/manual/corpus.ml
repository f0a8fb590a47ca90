open Xpiler_ir
open Xpiler_machine
open Xpiler_lang

type entry = {
  id : string;
  platform : Platform.id;
  title : string;
  body : string;
  op : Intrin.op option;
}

let op_semantics = function
  | Intrin.Vec_add -> "elementwise vector addition dst[i] = a[i] + b[i]"
  | Intrin.Vec_sub -> "elementwise vector subtraction dst[i] = a[i] - b[i]"
  | Intrin.Vec_mul -> "elementwise vector multiplication dst[i] = a[i] * b[i]"
  | Intrin.Vec_max -> "elementwise vector maximum dst[i] = max(a[i], b[i])"
  | Intrin.Vec_min -> "elementwise vector minimum dst[i] = min(a[i], b[i])"
  | Intrin.Vec_exp -> "elementwise exponential activation dst[i] = exp(a[i])"
  | Intrin.Vec_log -> "elementwise natural logarithm dst[i] = log(a[i])"
  | Intrin.Vec_sqrt -> "elementwise square root dst[i] = sqrt(a[i])"
  | Intrin.Vec_recip -> "elementwise reciprocal dst[i] = 1 / a[i]"
  | Intrin.Vec_tanh -> "elementwise hyperbolic tangent activation dst[i] = tanh(a[i])"
  | Intrin.Vec_erf -> "elementwise error function dst[i] = erf(a[i]) used by gelu"
  | Intrin.Vec_relu -> "elementwise relu activation dst[i] = max(a[i], 0)"
  | Intrin.Vec_sigmoid -> "elementwise sigmoid activation dst[i] = 1/(1+exp(-a[i]))"
  | Intrin.Vec_gelu -> "elementwise gelu activation dst[i] = 0.5 a[i] (1 + erf(a[i]/sqrt2))"
  | Intrin.Vec_sign -> "elementwise sign dst[i] in {-1, 0, 1}"
  | Intrin.Vec_scale -> "vector scalar multiplication dst[i] = a[i] * scalar"
  | Intrin.Vec_adds -> "vector scalar addition dst[i] = a[i] + scalar"
  | Intrin.Vec_fill -> "fill vector with a scalar constant dst[i] = scalar"
  | Intrin.Vec_copy -> "copy vector dst[i] = a[i]"
  | Intrin.Vec_reduce_sum -> "reduce a vector by summation dst[0] = sum of a, used by softmax layernorm pooling"
  | Intrin.Vec_reduce_max -> "reduce a vector by maximum dst[0] = max of a, used by softmax maxpool"
  | Intrin.Mma ->
    "matrix fragment multiply accumulate on the tensor core: d[m,n] += a[m,k] * b[k,n], \
     operands live in matrix_a matrix_b accumulator fragments"
  | Intrin.Mlp ->
    "matrix multiplication (fully connected layer) dst[m,n] += input[m,k] * weight[k,n], \
     matmul gemm linear layer"
  | Intrin.Conv2d -> "2d convolution with weights, conv kernel window stride"
  | Intrin.Dp4a ->
    "int8 dot product of groups of 4 accumulated into int32, used by quantized matmul \
     gemm with dl boost"

let scope_rule_text pid op =
  let dst, srcs = Platform.intrinsic_scope_rule pid op in
  Printf.sprintf "destination must reside in %s; sources in %s" (Scope.to_string dst)
    (String.concat ", " (List.map Scope.to_string srcs))

let usage_example op name =
  match op with
  | Intrin.Mlp -> Printf.sprintf "example: %s(out, in, weight, 64, 64, 64); // out[Nram], in[Nram], weight[Wram]" name
  | Intrin.Mma -> Printf.sprintf "example: %s(d_frag, a_frag, b_frag, 16, 16, 16);" name
  | Intrin.Conv2d ->
    Printf.sprintf "example: %s(out, in, w, co, ci, kh, kw, ho, wo, stride);" name
  | Intrin.Dp4a -> Printf.sprintf "example: %s(acc, a, b, 64); // 16 groups of 4 int8" name
  | Intrin.Vec_fill -> Printf.sprintf "example: %s(dst, 0.0f, 128);" name
  | Intrin.Vec_scale | Intrin.Vec_adds -> Printf.sprintf "example: %s(dst, src, 2.0f, 128);" name
  | op when Intrin.arity op = 2 -> Printf.sprintf "example: %s(dst, a, b, 128);" name
  | _ -> Printf.sprintf "example: %s(dst, src, 128);" name

let intrinsic_entries pid =
  let p = Platform.of_id pid in
  List.filter_map
    (fun op ->
      match Platform.intrinsic_spelling p op with
      | None -> None
      | Some name ->
        let align =
          if Intrin.is_vector op && p.Platform.vector_align > 1 then
            Printf.sprintf " the element count must be a multiple of %d." p.Platform.vector_align
          else ""
        in
        Some
          { id = Printf.sprintf "%s/%s" (Platform.id_to_string pid) (Intrin.op_name op);
            platform = pid;
            title = name;
            body =
              Printf.sprintf "%s: %s. %s.%s %s" name (op_semantics op)
                (scope_rule_text pid op) align (usage_example op name);
            op = Some op
          })
    p.Platform.intrinsics

let memory_entries pid =
  let p = Platform.of_id pid in
  let describe s =
    match (pid, s) with
    | Platform.Bang, Scope.Nram ->
      "NRAM neuron ram: fast on-chip memory for input and output activations of \
       vector and matrix intrinsics, declared with __nram__"
    | Platform.Bang, Scope.Wram ->
      "WRAM weight ram: dedicated on-chip storage for matmul and convolution weights, \
       declared with __wram__"
    | Platform.Bang, Scope.Global -> "GDRAM: device global memory, kernel pointer parameters"
    | Platform.Bang, Scope.Shared -> "SRAM shared across the cores of a cluster, __mlu_shared__"
    | (Platform.Cuda | Platform.Hip), Scope.Shared ->
      "shared memory: per-block scratchpad for cooperative tiles, declared __shared__, \
       synchronized with __syncthreads"
    | (Platform.Cuda | Platform.Hip), Scope.Fragment ->
      "matrix fragments: register tiles for the tensor/matrix core, matrix_a matrix_b accumulator"
    | (Platform.Cuda | Platform.Hip), Scope.Global -> "global memory: device DRAM, kernel pointers"
    | Platform.Vnni, Scope.Host -> "host memory: ordinary C arrays"
    | _, s -> Scope.to_string s ^ " memory"
  in
  List.map
    (fun s ->
      { id = Printf.sprintf "%s/mem-%s" (Platform.id_to_string pid) (Scope.to_string s);
        platform = pid;
        title = "memory " ^ Scope.to_string s;
        body = describe s;
        op = None
      })
    p.Platform.scopes

let parallel_entries pid =
  let p = Platform.of_id pid in
  let d = Dialect.of_platform pid in
  if p.Platform.axes = [] then
    [ { id = Platform.id_to_string pid ^ "/parallel";
        platform = pid;
        title = "sequential execution";
        body =
          "plain C: no parallel built-ins; loops run sequentially (the harness may \
           parallelize the outermost loop with openmp)";
        op = None
      } ]
  else
    List.map
      (fun ax ->
        { id = Printf.sprintf "%s/axis-%s" (Platform.id_to_string pid) (Axis.to_string ax);
          platform = pid;
          title = Dialect.surface_axis d ax;
          body =
            Printf.sprintf
              "parallel built-in %s: identifies this worker along the %s axis; parallel \
               loops are mapped onto it with loop binding"
              (Dialect.surface_axis d ax) (Axis.to_string ax);
          op = None
        })
      p.Platform.axes

let entries_table : (Platform.id, entry list) Hashtbl.t Xpiler_util.Session.t =
  Xpiler_util.Session.make (fun () -> Hashtbl.create 4)

let index_table : (Platform.id, Bm25.index) Hashtbl.t Xpiler_util.Session.t =
  Xpiler_util.Session.make (fun () -> Hashtbl.create 4)

let entries pid =
  let entries_table = Xpiler_util.Session.get entries_table in
  match Hashtbl.find_opt entries_table pid with
  | Some es -> es
  | None ->
    let es = intrinsic_entries pid @ memory_entries pid @ parallel_entries pid in
    Hashtbl.add entries_table pid es;
    es

let find pid id = List.find_opt (fun e -> String.equal e.id id) (entries pid)

let index pid =
  let index_table = Xpiler_util.Session.get index_table in
  match Hashtbl.find_opt index_table pid with
  | Some idx -> idx
  | None ->
    let idx =
      Bm25.build
        (List.map (fun e -> { Bm25.id = e.id; text = e.title ^ " " ^ e.body }) (entries pid))
    in
    Hashtbl.add index_table pid idx;
    idx

let lookup_op pid op =
  List.find_opt (fun e -> e.op = Some op) (entries pid)

let search pid query n =
  Bm25.top (index pid) query n |> List.filter_map (find pid)
