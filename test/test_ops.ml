open Xpiler_ir
open Xpiler_machine
open Xpiler_ops

let platforms = [ Platform.Cuda; Platform.Bang; Platform.Hip; Platform.Vnni ]

let test_registry () =
  Alcotest.(check int) "21 operators" 21 (List.length Registry.all);
  Alcotest.(check int) "168 cases" 168 (List.length (Registry.cases ()));
  List.iter
    (fun (op : Opdef.t) ->
      Alcotest.(check int) (op.name ^ " has 8 shapes") 8 (List.length op.shapes))
    Registry.all

let test_serial_wellformed () =
  List.iter
    (fun (c : Registry.case) ->
      let k = c.op.serial c.shape in
      match Validate.check k with
      | Ok () -> ()
      | Error es -> Alcotest.fail (c.case_id ^ ": " ^ Validate.errors_to_string es))
    (Registry.cases ())

let test_serial_passes_own_unit_test () =
  (* first shape of each op, serial kernel vs itself: oracle sanity *)
  List.iter
    (fun (op : Opdef.t) ->
      let shape = List.hd op.shapes in
      match Unit_test.check ~trials:1 op shape (op.serial shape) with
      | Unit_test.Pass -> ()
      | Unit_test.Fail m -> Alcotest.fail (op.name ^ ": " ^ m))
    Registry.all

let test_corrupted_kernel_fails () =
  let op = Registry.find_exn "gemm" in
  let shape = List.hd op.shapes in
  let k = op.serial shape in
  (* perturb a loop bound: classic instruction/boundary error *)
  let bad =
    Kernel.map_body
      (Stmt.map_block (fun s ->
           match s with
           | Stmt.For ({ var = "p"; extent = Expr.Int n; _ } as r) ->
             Some (Stmt.For { r with extent = Expr.Int (n - 1) })
           | s -> Some s))
      k
  in
  match Unit_test.check ~trials:1 op shape bad with
  | Unit_test.Fail _ -> ()
  | Unit_test.Pass -> Alcotest.fail "corrupted kernel must fail its unit test"

(* a throwaway elementwise operator over [n] floats whose serial kernel is
   [body]: fresh per call, so its reference entries are its own *)
let throwaway_op name body : Opdef.t =
  let open Expr.Infix in
  let n = 64 in
  { name;
    cls = Opdef.Elementwise;
    shapes = [ [ ("n", n) ] ];
    buffers =
      [ { buf_name = "inp"; dtype = Dtype.F32; size = (fun _ -> n); is_output = false };
        { buf_name = "out"; dtype = Dtype.F32; size = (fun _ -> n); is_output = true } ];
    serial =
      (fun _ ->
        Kernel.make ~name ~params:[ Builder.buffer "inp"; Builder.buffer "out" ]
          [ Builder.for_ "i" (int n) [ Builder.store "out" (v "i") (body (v "i")) ] ]);
    flops = (fun _ -> float_of_int n)
  }

(* the serial reference reads one past the end of its input: the oracle
   cannot run, which must end in a typed failure, not an exception *)
let oob_op () = throwaway_op "oob_reference" (fun i -> Expr.Infix.(load "inp" (i + int 1)))

let test_reference_failure_is_typed () =
  let op = oob_op () in
  let shape = List.hd op.shapes in
  (match Unit_test.check ~trials:1 op shape (op.serial shape) with
  | Unit_test.Fail m ->
    Alcotest.(check bool) ("names the reference run: " ^ m) true
      (String.starts_with ~prefix:"reference run: " m)
  | Unit_test.Pass -> Alcotest.fail "a check against a raising reference must fail");
  let open Xpiler_core in
  match
    Xpiler.transcompile ~config:(Config.with_seed Config.default 3) ~src:Platform.Cuda
      ~dst:Platform.Bang ~op ~shape ()
  with
  | o ->
    Alcotest.(check bool) "not accepted" false (Xpiler.accepted o.Xpiler.status)
  | exception e -> Alcotest.failf "transcompile raised %s" (Printexc.to_string e)

let reference_runs () =
  Xpiler_obs.Metrics.value
    (Xpiler_obs.Metrics.counter ~stable:false "xpiler_unit_test_reference_runs_total")

(* the reference cache evicts least-recently-used entries, not everything:
   after touching more keys than it holds, the most recent is still cached *)
let test_reference_cache_lru () =
  let op = throwaway_op "lru_probe" (fun i -> Expr.Infix.(load "inp" i * flt 2.0)) in
  let shape = List.hd op.shapes in
  let touch seed = ignore (Unit_test.reference_outputs_seeded ~seed op shape) in
  let keys = 600 in
  let before = reference_runs () in
  for seed = 1 to keys do
    touch seed
  done;
  Alcotest.(check int) "one run per new key" keys (reference_runs () - before);
  let filled = reference_runs () in
  touch keys;
  Alcotest.(check int) "the most recent key is still cached" filled (reference_runs ());
  touch 1;
  Alcotest.(check int) "the least recent was evicted" (filled + 1) (reference_runs ())

let idiom_case pid (op : Opdef.t) shape =
  let platform = Platform.of_id pid in
  let k = Idiom.source pid op shape in
  (match Checker.compile platform k with
  | Ok () -> ()
  | Error es ->
    Alcotest.fail
      (Printf.sprintf "%s on %s does not compile:\n%s\n%s" op.name platform.Platform.name
         (Checker.errors_to_string es) (Kernel.to_string k)));
  match Unit_test.check ~trials:1 op shape k with
  | Unit_test.Pass -> ()
  | Unit_test.Fail m ->
    Alcotest.fail
      (Printf.sprintf "%s on %s: %s\n%s" op.name platform.Platform.name m (Kernel.to_string k))

let test_idioms_first_shape () =
  List.iter
    (fun (op : Opdef.t) ->
      let shape = List.hd op.shapes in
      List.iter (fun pid -> idiom_case pid op shape) platforms)
    Registry.all

let test_bang_gemm_idiom_is_tensorized () =
  let op = Registry.find_exn "gemm" in
  let k = Idiom.source Platform.Bang op (List.hd op.shapes) in
  Alcotest.(check bool) "mlp present" true
    (List.exists
       (fun (i : Intrin.t) -> Intrin.equal_op i.op Intrin.Mlp)
       (Stmt.intrinsics k.Kernel.body))

let test_bang_gemv_idiom_is_tensorized () =
  let op = Registry.find_exn "gemv" in
  let k = Idiom.source Platform.Bang op (List.hd op.shapes) in
  let ops = List.map (fun (i : Intrin.t) -> i.op) (Stmt.intrinsics k.Kernel.body) in
  Alcotest.(check bool) "dot product vectorized" true
    (List.mem Intrin.Vec_mul ops && List.mem Intrin.Vec_reduce_sum ops)

let test_bang_batch_gemm_idiom_is_tensorized () =
  let op = Registry.find_exn "batch_gemm" in
  let k = Idiom.source Platform.Bang op (List.hd op.shapes) in
  Alcotest.(check bool) "mlp present" true
    (List.exists
       (fun (i : Intrin.t) -> Intrin.equal_op i.op Intrin.Mlp)
       (Stmt.intrinsics k.Kernel.body));
  Alcotest.(check bool) "batch bound to tasks" true
    (List.mem Axis.Task_id (Stmt.axes_used k.Kernel.body))

let test_bang_attention_idiom_is_tensorized () =
  let op = Registry.find_exn "self_attention" in
  let k = Idiom.source Platform.Bang op (List.nth op.shapes 1) in
  let ops = List.map (fun (i : Intrin.t) -> i.op) (Stmt.intrinsics k.Kernel.body) in
  List.iter
    (fun o -> Alcotest.(check bool) (Intrin.op_name o ^ " used") true (List.mem o ops))
    [ Intrin.Vec_mul; Intrin.Vec_exp; Intrin.Vec_reduce_max; Intrin.Vec_reduce_sum;
      Intrin.Vec_scale ]

let test_bang_conv_idiom_is_tensorized () =
  let op = Registry.find_exn "conv2d_nhwc" in
  let k = Idiom.source Platform.Bang op (List.hd op.shapes) in
  Alcotest.(check bool) "conv intrinsic" true
    (List.exists
       (fun (i : Intrin.t) -> Intrin.equal_op i.op Intrin.Conv2d)
       (Stmt.intrinsics k.Kernel.body))

let test_bang_softmax_idiom_is_tensorized () =
  let op = Registry.find_exn "softmax" in
  let k = Idiom.source Platform.Bang op (List.hd op.shapes) in
  let ops = List.map (fun (i : Intrin.t) -> i.op) (Stmt.intrinsics k.Kernel.body) in
  Alcotest.(check bool) "exp vectorized" true (List.mem Intrin.Vec_exp ops);
  Alcotest.(check bool) "reduce vectorized" true (List.mem Intrin.Vec_reduce_sum ops)

let test_cuda_idioms_use_grid () =
  List.iter
    (fun name ->
      let op = Registry.find_exn name in
      let k = Idiom.source Platform.Cuda op (List.hd op.shapes) in
      Alcotest.(check bool) (name ^ " uses blockIdx") true
        (List.mem Axis.Block_x (Stmt.axes_used k.Kernel.body)))
    [ "add"; "relu"; "softmax"; "conv2d_nhwc"; "self_attention" ]

let test_cuda_gemm_uses_tensor_core () =
  let op = Registry.find_exn "gemm" in
  let k = Idiom.source Platform.Cuda op (List.hd op.shapes) in
  Alcotest.(check bool) "mma present" true
    (List.exists
       (fun (i : Intrin.t) -> Intrin.equal_op i.op Intrin.Mma)
       (Stmt.intrinsics k.Kernel.body));
  (* fragments spelled with wmma in the surface text *)
  let text = Idiom.source_text Platform.Cuda op (List.hd op.shapes) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "wmma::mma_sync in source" true (contains text "wmma::mma_sync");
  Alcotest.(check bool) "__fragment__ in source" true (contains text "__fragment__")

let test_idiom_source_text_parses_back () =
  List.iter
    (fun name ->
      let op = Registry.find_exn name in
      let shape = List.hd op.shapes in
      List.iter
        (fun pid ->
          let text = Idiom.source_text pid op shape in
          match Xpiler_lang.Parser.parse_platform pid text with
          | _ -> ()
          | exception Xpiler_lang.Parser.Parse_error m ->
            Alcotest.fail
              (Printf.sprintf "%s/%s does not re-parse: %s\n%s" name
                 (Platform.id_to_string pid) m text))
        platforms)
    [ "gemm"; "add"; "softmax"; "maxpool"; "conv1d" ]

(* property: a randomly chosen case's idiom preserves semantics on every
   platform *)
let prop_random_case_idioms =
  let cases = Array.of_list (Registry.cases ()) in
  QCheck.Test.make ~name:"random case idioms are correct on all platforms" ~count:12
    (QCheck.int_range 0 (Array.length cases - 1))
    (fun i ->
      let c = cases.(i) in
      List.for_all
        (fun pid ->
          let k = Idiom.source pid c.op c.shape in
          Unit_test.check ~trials:1 c.op c.shape k = Unit_test.Pass)
        platforms)

let () =
  Alcotest.run "ops"
    [ ( "registry",
        [ Alcotest.test_case "inventory" `Quick test_registry;
          Alcotest.test_case "serial kernels well-formed" `Quick test_serial_wellformed;
          Alcotest.test_case "serial passes unit test" `Quick test_serial_passes_own_unit_test;
          Alcotest.test_case "corrupted kernel fails" `Quick test_corrupted_kernel_fails;
          Alcotest.test_case "raising reference is a typed failure" `Quick
            test_reference_failure_is_typed;
          Alcotest.test_case "reference cache is LRU" `Quick test_reference_cache_lru
        ] );
      ( "idioms",
        [ Alcotest.test_case "all ops, first shape, 4 platforms" `Slow test_idioms_first_shape;
          Alcotest.test_case "bang gemm tensorized" `Quick test_bang_gemm_idiom_is_tensorized;
          Alcotest.test_case "bang softmax tensorized" `Quick
            test_bang_softmax_idiom_is_tensorized;
          Alcotest.test_case "bang gemv tensorized" `Quick test_bang_gemv_idiom_is_tensorized;
          Alcotest.test_case "bang batch-gemm tensorized" `Quick
            test_bang_batch_gemm_idiom_is_tensorized;
          Alcotest.test_case "bang attention tensorized" `Quick
            test_bang_attention_idiom_is_tensorized;
          Alcotest.test_case "bang conv tensorized" `Quick test_bang_conv_idiom_is_tensorized;
          Alcotest.test_case "cuda idioms use grid" `Quick test_cuda_idioms_use_grid;
          Alcotest.test_case "cuda gemm tensor core" `Quick test_cuda_gemm_uses_tensor_core;
          Alcotest.test_case "source text re-parses" `Quick test_idiom_source_text_parses_back
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_random_case_idioms ])
    ]
