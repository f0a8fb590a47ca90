open Xpiler_ir
open Xpiler_machine
open Xpiler_lang

let kernel = Alcotest.testable (Fmt.of_to_string Kernel.to_string) Kernel.equal

(* ---- lexer -------------------------------------------------------------- *)

let test_lex_basic () =
  let toks = Lexer.tokenize "for (int i = 0; i < 10; i++) { a[i] = 1.5f; }" in
  Alcotest.(check int) "token count" 24 (List.length toks);
  match toks with
  | Token.Ident "for" :: Token.Punct "(" :: Token.Ident "int" :: _ -> ()
  | _ -> Alcotest.fail "unexpected prefix"

let test_lex_dotted_and_ns () =
  match Lexer.tokenize "blockIdx.x wmma::mma_sync x.y" with
  | [ Token.Ident "blockIdx.x"; Token.Ident "wmma::mma_sync"; Token.Ident "x";
      Token.Punct "."; Token.Ident "y"; Token.Eof ] -> ()
  | toks ->
    Alcotest.fail (String.concat " " (List.map Token.to_string toks))

let test_lex_pragma () =
  match Lexer.tokenize "#launch blockIdx.x=4 threadIdx.x=128\nvoid" with
  | [ Token.Launch_pragma [ ("blockIdx.x", 4); ("threadIdx.x", 128) ]; Token.Ident "void";
      Token.Eof ] -> ()
  | _ -> Alcotest.fail "pragma not lexed"

let test_lex_comments () =
  match Lexer.tokenize "a /* multi \n line */ b // tail\n c" with
  | [ Token.Ident "a"; Token.Ident "b"; Token.Ident "c"; Token.Eof ] -> ()
  | _ -> Alcotest.fail "comments not skipped"

let test_lex_floats () =
  match Lexer.tokenize "1.5f 2.0 3f 1e-5f" with
  | [ Token.Float_lit a; Token.Float_lit b; Token.Float_lit c; Token.Float_lit d; Token.Eof ]
    ->
    Alcotest.(check (float 1e-9)) "1.5" 1.5 a;
    Alcotest.(check (float 1e-9)) "2.0" 2.0 b;
    Alcotest.(check (float 1e-9)) "3" 3.0 c;
    Alcotest.(check (float 1e-12)) "1e-5" 1e-5 d
  | _ -> Alcotest.fail "floats not lexed"

let test_lex_error () =
  match Lexer.tokenize "a @ b" with
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected lex error"

(* ---- parser ------------------------------------------------------------- *)

let cuda_vecadd_src =
  {|#launch blockIdx.x=4 threadIdx.x=64
__global__ void vecadd(float* a, float* b, float* c, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    c[i] = a[i] + b[i];
  }
}|}

let test_parse_cuda_vecadd () =
  let k = Parser.parse Dialect.cuda cuda_vecadd_src in
  Alcotest.(check string) "name" "vecadd" k.Kernel.name;
  Alcotest.(check int) "params" 4 (List.length k.Kernel.params);
  Alcotest.(check int) "parallelism" 256 (Kernel.total_parallelism k);
  (* blockDim.x resolved to the launch extent *)
  match k.Kernel.body with
  | [ Stmt.For { kind = Stmt.Parallel Axis.Block_x; body = [ Stmt.For t ]; _ } ] -> (
    match t.body with
    | Stmt.Let { value; _ } :: _ ->
      Alcotest.(check bool) "blockDim.x inlined" true
        (Expr.equal value
           Expr.(
             Binop (Add, Binop (Mul, Var "blockIdx.x", Int 64), Var "threadIdx.x")))
    | _ -> Alcotest.fail "missing let")
  | _ -> Alcotest.fail "missing parallel nest"

let test_parse_executes () =
  let k = Parser.parse Dialect.cuda cuda_vecadd_src in
  let r = Xpiler_util.Rng.create 7 in
  let a = Tensor.random r 256 and b = Tensor.random r 256 in
  let c = Tensor.create 256 in
  let _ =
    Interp.run k
      [ ("a", Interp.Buf a); ("b", Interp.Buf b); ("c", Interp.Buf c);
        ("n", Interp.Scalar_int 256) ]
  in
  let ok = ref true in
  for i = 0 to 255 do
    if Float.abs (Tensor.get c i -. (Tensor.get a i +. Tensor.get b i)) > 1e-6 then ok := false
  done;
  Alcotest.(check bool) "parsed kernel executes" true !ok

let bang_src =
  {|#launch taskId=4
__mlu_global__ void scale(float* inp, float* out, int n) {
  __nram__ float buf[256];
  int base = taskId * 256;
  __memcpy(buf, inp + base, 256 * sizeof(float), GDRAM2NRAM);
  __bang_mul_scalar(buf, buf, 2.0f, 256);
  __memcpy(out + base, buf, 256 * sizeof(float), NRAM2GDRAM);
}|}

let test_parse_bang () =
  let k = Parser.parse Dialect.bang bang_src in
  (match Checker.compile Platform.bang k with
  | Ok () -> ()
  | Error es -> Alcotest.fail (Checker.errors_to_string es));
  let r = Xpiler_util.Rng.create 3 in
  let inp = Tensor.random r 1024 in
  let out = Tensor.create 1024 in
  let _ =
    Interp.run k
      [ ("inp", Interp.Buf inp); ("out", Interp.Buf out); ("n", Interp.Scalar_int 1024) ]
  in
  let ok = ref true in
  for i = 0 to 1023 do
    if Float.abs (Tensor.get out i -. (2.0 *. Tensor.get inp i)) > 1e-6 then ok := false
  done;
  Alcotest.(check bool) "bang scale ok" true !ok

let hip_src =
  {|#launch blockIdx.x=2 threadIdx.x=32
__global__ void copy(float* a, float* b) {
  int i = hipBlockIdx_x * hipBlockDim_x + hipThreadIdx_x;
  b[i] = a[i];
}|}

let test_parse_hip () =
  let k = Parser.parse Dialect.hip hip_src in
  match Checker.compile Platform.hip k with
  | Ok () -> ()
  | Error es -> Alcotest.fail (Checker.errors_to_string es)

let vnni_src =
  {|void dot(int8_t* a, int8_t* b, int32_t* acc, int n) {
  for (int g = 0; g < n; g++) {
    acc[g] = 0;
  }
  _mm512_dpbusd_epi32(acc, a, b, n * 4);
}|}

let test_parse_vnni () =
  let k = Parser.parse Dialect.vnni vnni_src in
  (match Checker.compile Platform.vnni k with
  | Ok () -> ()
  | Error es -> Alcotest.fail (Checker.errors_to_string es));
  let a = Tensor.of_array ~dtype:Dtype.I8 [| 1.; 1.; 1.; 1.; 2.; 2.; 2.; 2. |] in
  let b = Tensor.of_array ~dtype:Dtype.I8 [| 3.; 3.; 3.; 3.; 1.; 1.; 1.; 1. |] in
  let acc = Tensor.create ~dtype:Dtype.I32 2 in
  let _ =
    Interp.run k
      [ ("a", Interp.Buf a); ("b", Interp.Buf b); ("acc", Interp.Buf acc);
        ("n", Interp.Scalar_int 2) ]
  in
  Alcotest.(check (float 0.0)) "dot0" 12.0 (Tensor.get acc 0);
  Alcotest.(check (float 0.0)) "dot1" 8.0 (Tensor.get acc 1)

(* codegen prints a multi-term intrinsic offset unparenthesized: the buffer
   heads a left-nested sum and the terms after it are the offset *)
let test_parse_vnni_multi_term_offset () =
  let src =
    {|void dot(int8_t* a, int8_t* b, int32_t* acc) {
  for (int g = 0; g < 2; g++) {
    for (int h = 0; h < 2; h++) {
      acc[g * 2 + h] = 0;
    }
  }
  for (int g = 0; g < 2; g++) {
    for (int h = 0; h < 2; h++) {
      _mm512_dpbusd_epi32(acc + g * 2 + h, a + g * 8 + h * 4 + 16, b + g * 8 + h * 4, 4);
    }
  }
}|}
  in
  let k = Parser.parse Dialect.vnni src in
  (match Stmt.intrinsics k.Kernel.body with
  | [ { Intrin.srcs = { buf = "a"; offset } :: _; _ } ] ->
    let open Expr in
    Alcotest.(check bool) "three-term offset" true
      (Expr.equal offset
         (Binop (Add, Binop (Add, Binop (Mul, Var "g", Int 8), Binop (Mul, Var "h", Int 4)), Int 16)))
  | _ -> Alcotest.fail "expected one dpbusd call reading a");
  (* group i of a (from element 16 on) holds i + 1; b is all ones *)
  let a =
    Tensor.of_array ~dtype:Dtype.I8
      (Array.init 32 (fun i -> if i < 16 then 9. else float_of_int (((i - 16) / 4) + 1)))
  in
  let b = Tensor.of_array ~dtype:Dtype.I8 (Array.make 16 1.) in
  let acc = Tensor.create ~dtype:Dtype.I32 4 in
  let _ = Interp.run k [ ("a", Interp.Buf a); ("b", Interp.Buf b); ("acc", Interp.Buf acc) ] in
  Alcotest.(check (list (float 0.0))) "dot products" [ 4.; 8.; 12.; 16. ]
    (List.init 4 (Tensor.get acc))

let test_parse_shared_hoist () =
  let src =
    {|#launch blockIdx.x=2 threadIdx.x=16
__global__ void rev(float* inp, float* out) {
  __shared__ float tile[16];
  tile[threadIdx.x] = inp[blockIdx.x * 16 + threadIdx.x];
  __syncthreads();
  out[blockIdx.x * 16 + threadIdx.x] = tile[15 - threadIdx.x];
}|}
  in
  let k = Parser.parse Dialect.cuda src in
  (* the shared alloc must sit between the block loop and the thread loop *)
  (match k.Kernel.body with
  | [ Stmt.For { kind = Stmt.Parallel Axis.Block_x;
                 body = Stmt.Alloc { scope = Scope.Shared; _ } :: [ Stmt.For _ ]; _ } ] -> ()
  | _ -> Alcotest.fail "shared not hoisted to block level");
  (* and the barrier must make the reversal correct under execution *)
  let r = Xpiler_util.Rng.create 11 in
  let inp = Tensor.random r 32 in
  let out = Tensor.create 32 in
  let _ = Interp.run k [ ("inp", Interp.Buf inp); ("out", Interp.Buf out) ] in
  let ok = ref true in
  for b = 0 to 1 do
    for t = 0 to 15 do
      if Tensor.get out ((b * 16) + t) <> Tensor.get inp ((b * 16) + (15 - t)) then ok := false
    done
  done;
  Alcotest.(check bool) "reversal correct" true !ok

let test_parse_rejects_wrong_dialect () =
  (match Parser.parse Dialect.vnni cuda_vecadd_src with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "vnni must reject __global__");
  match Parser.parse Dialect.cuda bang_src with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "cuda must reject __mlu_global__"

let test_parse_compound_assign () =
  let src =
    {|void acc(float* a, float* c, int n) {
  float s = 0.0f;
  for (int i = 0; i < n; i++) {
    s += a[i];
    c[i] *= 2.0f;
  }
  c[0] += s;
}|}
  in
  let k = Parser.parse Dialect.vnni src in
  let a = Tensor.of_array [| 1.0; 2.0; 3.0 |] in
  let c = Tensor.of_array [| 1.0; 1.0; 1.0 |] in
  let _ =
    Interp.run k [ ("a", Interp.Buf a); ("c", Interp.Buf c); ("n", Interp.Scalar_int 3) ]
  in
  Alcotest.(check (float 1e-9)) "c0 = 2 + 6" 8.0 (Tensor.get c 0)

let test_parse_return_guard () =
  let src =
    {|#launch blockIdx.x=4 threadIdx.x=64
__global__ void vecadd(float* a, float* b, float* c, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i >= n) return;
  c[i] = a[i] + b[i];
}|}
  in
  let k = Parser.parse Dialect.cuda src in
  let a = Tensor.of_array (Array.init 256 float_of_int) in
  let b = Tensor.of_array (Array.make 256 1.0) in
  let c = Tensor.create 256 in
  let _ =
    Interp.run k
      [ ("a", Interp.Buf a); ("b", Interp.Buf b); ("c", Interp.Buf c);
        ("n", Interp.Scalar_int 200) ]
  in
  Alcotest.(check (float 1e-9)) "guarded in" 200.0 (Tensor.get c 199);
  Alcotest.(check (float 1e-9)) "guarded out" 0.0 (Tensor.get c 200)

let test_parse_pragma_kind () =
  let src =
    {|void f(float* a) {
  #pragma pipeline
  for (int i = 0; i < 4; i++) {
    a[i] = 1.0f;
  }
}|}
  in
  let k = Parser.parse Dialect.vnni src in
  match k.Kernel.body with
  | [ Stmt.For { kind = Stmt.Pipelined; _ } ] -> ()
  | _ -> Alcotest.fail "pipeline pragma lost"

(* ---- round trips --------------------------------------------------------- *)

let roundtrip d k =
  let src = Codegen.emit d k in
  try Parser.parse d src
  with Parser.Parse_error m ->
    Alcotest.fail (Printf.sprintf "re-parse failed: %s\nsource:\n%s" m src)

let test_roundtrip_cuda () =
  let k = Parser.parse Dialect.cuda cuda_vecadd_src in
  Alcotest.check kernel "cuda roundtrip" k (roundtrip Dialect.cuda k)

let test_roundtrip_bang () =
  let k = Parser.parse Dialect.bang bang_src in
  Alcotest.check kernel "bang roundtrip" k (roundtrip Dialect.bang k)

let test_roundtrip_hip () =
  let k = Parser.parse Dialect.hip hip_src in
  let k' = roundtrip Dialect.hip k in
  Alcotest.check kernel "hip roundtrip" k k';
  (* surface text must use the hip spellings *)
  let src = Codegen.emit Dialect.hip k in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "hip spelling" true (contains src "hipBlockIdx_x")

let test_roundtrip_vnni () =
  let k = Parser.parse Dialect.vnni vnni_src in
  Alcotest.check kernel "vnni roundtrip" k (roundtrip Dialect.vnni k)

let test_roundtrip_shared () =
  let src =
    {|#launch blockIdx.x=2 threadIdx.x=16
__global__ void rev(float* inp, float* out) {
  __shared__ float tile[16];
  tile[threadIdx.x] = inp[blockIdx.x * 16 + threadIdx.x];
  __syncthreads();
  out[blockIdx.x * 16 + threadIdx.x] = tile[15 - threadIdx.x];
}|}
  in
  let k = Parser.parse Dialect.cuda src in
  Alcotest.check kernel "shared roundtrip" k (roundtrip Dialect.cuda k)

let test_loc () =
  Alcotest.(check int) "lines of code" 7 (Codegen.lines_of_code cuda_vecadd_src)

let () =
  Alcotest.run "lang"
    [ ( "lexer",
        [ Alcotest.test_case "basic" `Quick test_lex_basic;
          Alcotest.test_case "dotted and namespaced" `Quick test_lex_dotted_and_ns;
          Alcotest.test_case "pragma" `Quick test_lex_pragma;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "floats" `Quick test_lex_floats;
          Alcotest.test_case "error" `Quick test_lex_error
        ] );
      ( "parser",
        [ Alcotest.test_case "cuda vecadd" `Quick test_parse_cuda_vecadd;
          Alcotest.test_case "parsed kernel executes" `Quick test_parse_executes;
          Alcotest.test_case "bang" `Quick test_parse_bang;
          Alcotest.test_case "hip" `Quick test_parse_hip;
          Alcotest.test_case "vnni" `Quick test_parse_vnni;
          Alcotest.test_case "vnni multi-term offset" `Quick test_parse_vnni_multi_term_offset;
          Alcotest.test_case "shared hoisting" `Quick test_parse_shared_hoist;
          Alcotest.test_case "wrong dialect rejected" `Quick test_parse_rejects_wrong_dialect;
          Alcotest.test_case "compound assignment" `Quick test_parse_compound_assign;
          Alcotest.test_case "return guard" `Quick test_parse_return_guard;
          Alcotest.test_case "kind pragma" `Quick test_parse_pragma_kind
        ] );
      ( "roundtrip",
        [ Alcotest.test_case "cuda" `Quick test_roundtrip_cuda;
          Alcotest.test_case "bang" `Quick test_roundtrip_bang;
          Alcotest.test_case "hip" `Quick test_roundtrip_hip;
          Alcotest.test_case "vnni" `Quick test_roundtrip_vnni;
          Alcotest.test_case "shared" `Quick test_roundtrip_shared;
          Alcotest.test_case "lines of code" `Quick test_loc
        ] )
    ]
