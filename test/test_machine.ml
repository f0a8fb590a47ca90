open Xpiler_ir
open Xpiler_machine

let rng () = Xpiler_util.Rng.create 42

(* Hand-built tiled GEMM kernel: grid over row blocks, 16 threads per block,
   cooperative load of a B column tile into shared memory with barriers. *)
let gemm_shapes = (32, 24, 16) (* M, N, K *)

let vecadd_kernel =
  let open Expr.Infix in
  Kernel.make ~name:"vecadd"
    ~params:[ Builder.buffer "a"; Builder.buffer "b"; Builder.buffer "c"; Builder.scalar "n" ]
    ~launch:[ (Axis.Block_x, 4); (Axis.Thread_x, 8) ]
    [ Builder.par_for Axis.Block_x "blockIdx.x" (int 4)
        [ Builder.par_for Axis.Thread_x "threadIdx.x" (int 8)
            [ Builder.let_ "i" ((v "blockIdx.x" * int 8) + v "threadIdx.x");
              Builder.if_
                (v "i" < v "n")
                [ Builder.store "c" (v "i") (load "a" (v "i") + load "b" (v "i")) ]
            ]
        ]
    ]

let test_vecadd () =
  let r = rng () in
  let a = Tensor.random r 32 and b = Tensor.random r 32 in
  let c = Tensor.create 32 in
  let _ =
    Interp.run vecadd_kernel
      [ ("a", Interp.Buf a); ("b", Interp.Buf b); ("c", Interp.Buf c);
        ("n", Interp.Scalar_int 32) ]
  in
  let expected = Tensor.create 32 in
  for i = 0 to 31 do
    Tensor.set expected i (Tensor.get a i +. Tensor.get b i)
  done;
  Alcotest.(check bool) "vecadd matches" true (Tensor.allclose c expected)

(* block-wise reversal through shared memory: correct only with the barrier *)
let reverse_kernel ~with_sync =
  let open Expr.Infix in
  let body_after_load =
    [ Builder.store "out" ((v "blockIdx.x" * int 16) + v "threadIdx.x")
        (load "tile" (int 15 - v "threadIdx.x"))
    ]
  in
  let thread_body =
    Builder.store "tile" (v "threadIdx.x")
      (load "inp" ((v "blockIdx.x" * int 16) + v "threadIdx.x"))
    :: (if with_sync then [ Builder.sync ] else [])
    @ body_after_load
  in
  Kernel.make ~name:"rev"
    ~params:[ Builder.buffer "inp"; Builder.buffer "out" ]
    ~launch:[ (Axis.Block_x, 2); (Axis.Thread_x, 16) ]
    [ Builder.par_for Axis.Block_x "blockIdx.x" (int 2)
        [ Builder.alloc "tile" Scope.Shared 16;
          Builder.par_for Axis.Thread_x "threadIdx.x" (int 16) thread_body
        ]
    ]

let run_reverse ~with_sync =
  let r = rng () in
  let inp = Tensor.random r 32 in
  let out = Tensor.create 32 in
  let _ =
    Interp.run (reverse_kernel ~with_sync) [ ("inp", Interp.Buf inp); ("out", Interp.Buf out) ]
  in
  let expected = Tensor.create 32 in
  for b = 0 to 1 do
    for t = 0 to 15 do
      Tensor.set expected ((b * 16) + t) (Tensor.get inp ((b * 16) + (15 - t)))
    done
  done;
  Tensor.allclose out expected

let test_sync_semantics () =
  Alcotest.(check bool) "with barrier: correct" true (run_reverse ~with_sync:true);
  Alcotest.(check bool) "without barrier: race exposed" false (run_reverse ~with_sync:false)

(* cooperative tiled GEMM with barriers inside a serial K-tile loop *)
let tiled_gemm =
  let m, n, k = gemm_shapes in
  let ts = 8 in
  let row_blocks = m / ts and k_tiles = k / ts in
  let open Expr.Infix in
  (* one block per 8 rows; 8 threads; tiles of B columns staged in shared *)
  Kernel.make ~name:"gemm"
    ~params:
      [ Builder.buffer "A"; Builder.buffer "B"; Builder.buffer "C"; Builder.scalar "M";
        Builder.scalar "N"; Builder.scalar "K" ]
    ~launch:[ (Axis.Block_x, row_blocks); (Axis.Thread_x, ts) ]
    [ Builder.par_for Axis.Block_x "blockIdx.x" (int row_blocks)
        [ Builder.alloc "Btile" Scope.Shared (Stdlib.( * ) ts n);
          Builder.par_for Axis.Thread_x "threadIdx.x" (int ts)
            [ Builder.let_ "row" ((v "blockIdx.x" * int ts) + v "threadIdx.x");
              Builder.for_ "k0" (int k_tiles)
                [ (* each thread stages one row of the B tile *)
                  Builder.for_ "j" (v "N")
                    [ Builder.store "Btile" ((v "threadIdx.x" * v "N") + v "j")
                        (load "B" ((((v "k0" * int ts) + v "threadIdx.x") * v "N") + v "j"))
                    ];
                  Builder.sync;
                  Builder.for_ "j" (v "N")
                    [ Builder.let_ "acc"
                        (Expr.Select
                           (v "k0" = int 0, Expr.Float 0.0, load "C" ((v "row" * v "N") + v "j")));
                      Builder.for_ "kk" (int ts)
                        [ Builder.assign "acc"
                            (v "acc"
                            + (load "A" ((v "row" * v "K") + (v "k0" * int ts) + v "kk")
                              * load "Btile" ((v "kk" * v "N") + v "j")))
                        ];
                      Builder.store "C" ((v "row" * v "N") + v "j") (v "acc")
                    ];
                  Builder.sync
                ]
            ]
        ]
    ]

let reference_gemm a b m n k =
  let c = Tensor.create (m * n) in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for l = 0 to k - 1 do
        acc := !acc +. (Tensor.get a ((i * k) + l) *. Tensor.get b ((l * n) + j))
      done;
      Tensor.set c ((i * n) + j) !acc
    done
  done;
  c

let test_tiled_gemm () =
  let m, n, k = gemm_shapes in
  let r = rng () in
  let a = Tensor.random r (m * k) and b = Tensor.random r (k * n) in
  let c = Tensor.create (m * n) in
  let _ =
    Interp.run tiled_gemm
      [ ("A", Interp.Buf a); ("B", Interp.Buf b); ("C", Interp.Buf c);
        ("M", Interp.Scalar_int m); ("N", Interp.Scalar_int n); ("K", Interp.Scalar_int k) ]
  in
  Alcotest.(check bool) "tiled gemm matches reference" true
    (Tensor.allclose c (reference_gemm a b m n k))

let test_intrinsic_mlp () =
  let r = rng () in
  let a = Tensor.random r 12 (* 3x4 *) and b = Tensor.random r 20 (* 4x5 *) in
  let c = Tensor.create 15 in
  let k =
    Kernel.make ~name:"mlp"
      ~params:[ Builder.buffer "a"; Builder.buffer "b"; Builder.buffer "c" ]
      [ Builder.intrin Intrin.Mlp ~dst:("c", Expr.Int 0)
          ~srcs:[ ("a", Expr.Int 0); ("b", Expr.Int 0) ]
          [ Expr.Int 3; Expr.Int 4; Expr.Int 5 ]
      ]
  in
  let _ = Interp.run k [ ("a", Interp.Buf a); ("b", Interp.Buf b); ("c", Interp.Buf c) ] in
  Alcotest.(check bool) "mlp = gemm" true (Tensor.allclose c (reference_gemm a b 3 5 4))

let test_intrinsic_dp4a () =
  let a = Tensor.of_array ~dtype:Dtype.I8 [| 1.; 2.; 3.; 4.; -1.; 0.; 2.; 5. |] in
  let b = Tensor.of_array ~dtype:Dtype.I8 [| 2.; 2.; 2.; 2.; 3.; 3.; 3.; 3. |] in
  let c = Tensor.create ~dtype:Dtype.I32 2 in
  let k =
    Kernel.make ~name:"dp4a"
      ~params:[ Builder.buffer ~dtype:Dtype.I8 "a"; Builder.buffer ~dtype:Dtype.I8 "b";
                Builder.buffer ~dtype:Dtype.I32 "c" ]
      [ Builder.intrin Intrin.Dp4a ~dst:("c", Expr.Int 0)
          ~srcs:[ ("a", Expr.Int 0); ("b", Expr.Int 0) ]
          [ Expr.Int 8 ]
      ]
  in
  let _ = Interp.run k [ ("a", Interp.Buf a); ("b", Interp.Buf b); ("c", Interp.Buf c) ] in
  Alcotest.(check (float 1e-9)) "group 0" 20.0 (Tensor.get c 0);
  Alcotest.(check (float 1e-9)) "group 1" 18.0 (Tensor.get c 1)

let test_oob_raises () =
  let k =
    Kernel.make ~name:"oob" ~params:[ Builder.buffer "a" ]
      [ Builder.store "a" (Expr.Int 100) (Expr.Float 1.0) ]
  in
  let a = Tensor.create 4 in
  Alcotest.check_raises "oob store"
    (Interp.Runtime_error "out-of-bounds write a[100] (size 4)") (fun () ->
      ignore (Interp.run k [ ("a", Interp.Buf a) ]))

let test_fuel () =
  let open Expr.Infix in
  let k =
    Kernel.make ~name:"spin" ~params:[ Builder.buffer "a" ]
      [ Builder.for_ "i" (int 1000000)
          [ Builder.for_ "j" (int 1000000) [ Builder.store "a" (int 0) (flt 1.0) ] ]
      ]
  in
  let a = Tensor.create 1 in
  match Interp.run ~fuel:10_000 k [ ("a", Interp.Buf a) ] with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

(* ---- checker ---------------------------------------------------------- *)

let nram_alloc_kernel =
  Kernel.make ~name:"k" ~params:[ Builder.buffer "a" ]
    [ Builder.alloc "buf" Scope.Nram 64;
      Builder.memcpy ~dst:"buf" ~dst_off:(Expr.Int 0) ~src:"a" ~src_off:(Expr.Int 0)
        (Expr.Int 64)
    ]

let test_checker_scope () =
  (match Checker.compile Platform.bang nram_alloc_kernel with
  | Ok () -> ()
  | Error es -> Alcotest.fail ("bang should accept nram: " ^ Checker.errors_to_string es));
  match Checker.compile Platform.cuda nram_alloc_kernel with
  | Ok () -> Alcotest.fail "cuda must reject nram"
  | Error es ->
    Alcotest.(check bool) "memory error" true
      (List.exists (fun (e : Checker.error) -> e.category = `Memory) es)

let test_checker_axis () =
  let k =
    Kernel.make ~name:"k" ~params:[ Builder.buffer "a" ]
      ~launch:[ (Axis.Task_id, 16) ]
      [ Builder.par_for Axis.Task_id "taskId" (Expr.Int 16)
          [ Builder.store "a" (Expr.Var "taskId") (Expr.Float 1.0) ]
      ]
  in
  (match Checker.compile Platform.bang k with
  | Ok () -> ()
  | Error es -> Alcotest.fail (Checker.errors_to_string es));
  match Checker.compile Platform.cuda k with
  | Ok () -> Alcotest.fail "cuda must reject taskId"
  | Error es ->
    Alcotest.(check bool) "parallelism error" true
      (List.exists (fun (e : Checker.error) -> e.category = `Parallelism) es)

let test_checker_intrinsic_platform () =
  let k =
    Kernel.make ~name:"k" ~params:[ Builder.buffer "x" ]
      [ Builder.alloc "n1" Scope.Nram 64; Builder.alloc "n2" Scope.Nram 64;
        Builder.intrin Intrin.Vec_add ~dst:("n1", Expr.Int 0)
          ~srcs:[ ("n1", Expr.Int 0); ("n2", Expr.Int 0) ]
          [ Expr.Int 64 ]
      ]
  in
  (match Checker.compile Platform.bang k with
  | Ok () -> ()
  | Error es -> Alcotest.fail (Checker.errors_to_string es));
  match Checker.compile Platform.vnni k with
  | Ok () -> Alcotest.fail "vnni lacks nram"
  | Error _ -> ()

let test_checker_alignment () =
  let k =
    Kernel.make ~name:"k" ~params:[ Builder.buffer "x" ]
      [ Builder.alloc "n1" Scope.Nram 70; Builder.alloc "n2" Scope.Nram 70;
        Builder.intrin Intrin.Vec_add ~dst:("n1", Expr.Int 0)
          ~srcs:[ ("n1", Expr.Int 0); ("n2", Expr.Int 0) ]
          [ Expr.Int 70 ]
      ]
  in
  match Checker.compile Platform.bang k with
  | Ok () -> Alcotest.fail "bang requires 64-element alignment"
  | Error es ->
    Alcotest.(check bool) "instruction error" true
      (List.exists (fun (e : Checker.error) -> e.category = `Instruction) es)

let test_checker_capacity () =
  let k =
    Kernel.make ~name:"k" ~params:[ Builder.buffer "x" ]
      [ Builder.alloc "big" Scope.Nram (1024 * 1024) ]
  in
  match Checker.compile Platform.bang k with
  | Ok () -> Alcotest.fail "over-capacity nram"
  | Error _ -> ()

let test_checker_sync_on_cpu () =
  let k = Kernel.make ~name:"k" ~params:[] [ Builder.sync ] in
  match Checker.compile Platform.vnni k with
  | Ok () -> Alcotest.fail "vnni has no sync"
  | Error _ -> ()

(* ---- cost model -------------------------------------------------------- *)

let test_cost_cache_reduces_traffic () =
  let open Expr.Infix in
  (* naive: read a from global N*R times; cached: one memcpy then on-chip *)
  let naive =
    Kernel.make ~name:"naive" ~params:[ Builder.buffer "a"; Builder.buffer "o" ]
      [ Builder.for_ "r" (int 64)
          [ Builder.for_ "i" (int 1024)
              [ Builder.store "o" (v "i") (load "a" (v "i") * flt 2.0) ]
          ]
      ]
  in
  let cached =
    Kernel.make ~name:"cached" ~params:[ Builder.buffer "a"; Builder.buffer "o" ]
      [ Builder.alloc "buf" Scope.Nram 1024;
        Builder.memcpy ~dst:"buf" ~dst_off:(int 0) ~src:"a" ~src_off:(int 0) (int 1024);
        Builder.for_ "r" (int 64)
          [ Builder.for_ "i" (int 1024)
              [ Builder.store "o" (v "i") (load "buf" (v "i") * flt 2.0) ]
          ]
      ]
  in
  let fn = (Costmodel.extract_features naive ~shapes:[]).offchip_bytes in
  let fc = (Costmodel.extract_features cached ~shapes:[]).offchip_bytes in
  Alcotest.(check bool) "caching reduces off-chip traffic" true
    (Stdlib.( < ) fc (fn *. 0.6))

let test_cost_parallel_speedup () =
  let open Expr.Infix in
  let seq =
    Kernel.make ~name:"seq" ~params:[ Builder.buffer "a" ]
      [ Builder.for_ "i" (int 65536) [ Builder.store "a" (int 0) (v "i" * int 3) ] ]
  in
  let par =
    Kernel.make ~name:"par" ~params:[ Builder.buffer "a" ]
      ~launch:[ (Axis.Block_x, 256); (Axis.Thread_x, 256) ]
      [ Builder.par_for Axis.Block_x "b" (int 256)
          [ Builder.par_for Axis.Thread_x "t" (int 256)
              [ Builder.store "a" (int 0) (v "b" * v "t") ]
          ]
      ]
  in
  let ts = (Costmodel.estimate Platform.cuda seq ~shapes:[]).seconds in
  let tp = (Costmodel.estimate Platform.cuda par ~shapes:[]).seconds in
  Alcotest.(check bool) "parallel faster" true (Stdlib.( < ) tp ts)

let test_cost_tensorize_faster () =
  let open Expr.Infix in
  let scalar =
    Kernel.make ~name:"s" ~params:[ Builder.buffer "a"; Builder.buffer "b"; Builder.buffer "c" ]
      [ Builder.for_ "i" (int 512)
          [ Builder.for_ "j" (int 512)
              [ Builder.let_ "acc" (flt 0.0);
                Builder.for_ "k" (int 512)
                  [ Builder.assign "acc"
                      (v "acc" + (load "a" ((v "i" * int 512) + v "k")
                                 * load "b" ((v "k" * int 512) + v "j")))
                  ];
                Builder.store "c" ((v "i" * int 512) + v "j") (v "acc")
              ]
          ]
      ]
  in
  let tensorized =
    Kernel.make ~name:"t" ~params:[ Builder.buffer "a"; Builder.buffer "b"; Builder.buffer "c" ]
      [ Builder.alloc "na" Scope.Nram 262144;
        Builder.alloc "nb" Scope.Wram 262144;
        Builder.alloc "nc" Scope.Nram 262144;
        Builder.memcpy ~dst:"na" ~dst_off:(int 0) ~src:"a" ~src_off:(int 0) (int 262144);
        Builder.memcpy ~dst:"nb" ~dst_off:(int 0) ~src:"b" ~src_off:(int 0) (int 262144);
        Builder.intrin Intrin.Mlp ~dst:("nc", int 0)
          ~srcs:[ ("na", int 0); ("nb", int 0) ]
          [ int 512; int 512; int 512 ];
        Builder.memcpy ~dst:"c" ~dst_off:(int 0) ~src:"nc" ~src_off:(int 0) (int 262144)
      ]
  in
  let ts = (Costmodel.estimate Platform.bang scalar ~shapes:[]).seconds in
  let tt = (Costmodel.estimate Platform.bang tensorized ~shapes:[]).seconds in
  Alcotest.(check bool) "tensorized much faster" true (Stdlib.( < ) (tt *. 10.0) ts)

(* the feature extractor's counts agree with what the interpreter executes *)
let test_costmodel_cross_validation () =
  let check_op name =
    let op = Xpiler_ops.Registry.find_exn name in
    let shape = List.hd op.Xpiler_ops.Opdef.shapes in
    let k = Xpiler_ops.Idiom.source Platform.Bang op shape in
    let rng = Xpiler_util.Rng.create 17 in
    let args = Xpiler_ops.Unit_test.make_args rng op shape in
    let stats = Interp.run k args in
    let f = Costmodel.extract_features k ~shapes:[] in
    let modelled = f.Costmodel.vector_elems +. f.Costmodel.tensor_macs in
    Alcotest.(check (float 1e-6))
      (name ^ ": intrinsic elements modelled = executed")
      (float_of_int stats.Interp.intrinsic_elems)
      modelled;
    (* every memcpy element moves bytes on both sides; the model must charge
       at least that much traffic *)
    Alcotest.(check bool) (name ^ ": memcpy traffic covered") true
      (f.Costmodel.offchip_bytes +. f.Costmodel.onchip_bytes
      >= 8.0 *. float_of_int stats.Interp.memcpy_elems)
  in
  List.iter check_op [ "add"; "gemm"; "softmax"; "conv2d_nhwc"; "gemv" ]

(* property: fibers with barriers always compute the same result as a
   sequential phase-by-phase reference on a family of stencil programs *)
let prop_barrier_determinism =
  QCheck.Test.make ~name:"barrier execution is deterministic" ~count:50
    QCheck.(int_range 1 30)
    (fun n ->
      let k =
        let open Expr.Infix in
        Kernel.make ~name:"shift"
          ~params:[ Builder.buffer "inp"; Builder.buffer "out" ]
          ~launch:[ (Axis.Thread_x, n) ]
          [ Builder.alloc "tile" Scope.Shared n;
            Builder.par_for Axis.Thread_x "t" (int n)
              [ Builder.store "tile" (v "t") (load "inp" (v "t"));
                Builder.sync;
                Builder.store "out" (v "t") (load "tile" ((v "t" + int 1) % int n))
              ]
          ]
      in
      let r = Xpiler_util.Rng.create n in
      let inp = Tensor.random r n in
      let out1 = Tensor.create n and out2 = Tensor.create n in
      let _ = Interp.run k [ ("inp", Interp.Buf inp); ("out", Interp.Buf out1) ] in
      let _ = Interp.run k [ ("inp", Interp.Buf inp); ("out", Interp.Buf out2) ] in
      let expected = Tensor.create n in
      for t = 0 to n - 1 do
        Tensor.set expected t (Tensor.get inp ((t + 1) mod n))
      done;
      Tensor.allclose out1 expected && Tensor.allclose out1 out2)

(* ---- closure engine: compile memo and error parity ---------------------- *)

module Kgen = Test_support.Kgen
module Tcommon = Test_support.Tcommon

let buf_size b = List.assoc b Kgen.buffer_sizes
let kernel_of_seed seed = Kgen.kernel (Xpiler_util.Rng.create seed)

(* observation of one engine run: stats tuple + scalar-store trace + error *)
let observe runner k args =
  let trace = ref [] in
  match runner ~trace:(fun b i x -> trace := (b, i, x) :: !trace) k args with
  | (s : Interp.stats) ->
    Ok (s.steps, s.stores, s.intrinsic_elems, s.memcpy_elems, s.barriers, List.rev !trace)
  | exception Interp.Runtime_error m -> Error m

(* handcrafted dynamic errors: a memo-served compiled kernel raises the same
   Runtime_error message as a fresh compile and as the tree interpreter *)
let test_error_message_parity () =
  let open Expr.Infix in
  let out = Builder.buffer "out" in
  let mk name body = Kernel.make ~name ~params:[ out ] ~launch:[] body in
  let cases =
    [ mk "m_div0"
        [ Builder.for_ "i" (int 4)
            [ Builder.let_ "x" (int 7 / (v "i" - v "i"));
              Builder.store "out" (v "i") (v "x")
            ]
        ];
      mk "m_oob_store" [ Builder.store "out" (int 100_000) (flt 1.0) ];
      mk "m_oob_load" [ Builder.store "out" (int 0) (load "out" (int (-1))) ];
      mk "m_neg_extent"
        [ Builder.for_ "i" (int 0 - int 3) [ Builder.store "out" (v "i") (flt 0.0) ] ];
      mk "m_fuel" [ Builder.for_ "i" (int 1_000_000) [ Builder.let_ "x" (v "i") ] ]
    ]
  in
  let fuel = 1000 in
  List.iter
    (fun k ->
      let msg run =
        match run [ ("out", Interp.Buf (Tensor.create 1024)) ] with
        | (_ : Interp.stats) -> Alcotest.failf "%s: expected Runtime_error" k.Kernel.name
        | exception Interp.Runtime_error m -> m
      in
      let reference = msg (Interp.run_tree ~fuel k) in
      Alcotest.(check string)
        (k.Kernel.name ^ ": fresh compile")
        reference
        (msg (Compile.run ~fuel (Compile.compile k)));
      Alcotest.(check string)
        (k.Kernel.name ^ ": memo-served compile")
        reference
        (msg (Compile.run ~fuel (Compile.cached k))))
    cases

(* cold vs warm: a fresh compile and a memo-served compile of a structurally
   equal (but separately built) kernel produce identical outputs, stats and
   traces, and the memo hands back the same compiled value *)
let test_cold_vs_warm () =
  let k = kernel_of_seed 7 in
  let k' = kernel_of_seed 7 in
  let args = Tcommon.make_args (Xpiler_util.Rng.create 9) ~buf_size k [] in
  let a_cold = Tcommon.clone_args args in
  let a_warm = Tcommon.clone_args args in
  let cold = Compile.compile k in
  let r_cold = observe (fun ~trace _ a -> Compile.run ~trace cold a) k a_cold in
  let c = Compile.cached k in
  Alcotest.(check bool) "memo keyed by content" true (Compile.cached k' == c);
  let r_warm = observe (fun ~trace _ a -> Compile.run ~trace c a) k' a_warm in
  Alcotest.(check bool) "cold = warm (stats+trace)" true (compare r_cold r_warm = 0);
  Alcotest.(check bool) "cold = warm (buffers)" true
    (compare (Tcommon.buffers a_cold) (Tcommon.buffers a_warm) = 0)

(* the stable metrics snapshot — the cross-jobs determinism contract — is
   touched only by compile-memo lookups, never by executing a compiled
   kernel: pool workers run kernels on whichever domain is free *)
let test_stable_metrics_untouched () =
  let k = kernel_of_seed 11 in
  let args = Tcommon.make_args (Xpiler_util.Rng.create 4) ~buf_size k [] in
  let c = Compile.cached k in
  let before = Xpiler_obs.Metrics.snapshot ~stable_only:true () in
  ignore (Compile.run c (Tcommon.clone_args args));
  ignore (Compile.run ~trace:(fun _ _ _ -> ()) c (Tcommon.clone_args args));
  ignore (Interp.run_tree k (Tcommon.clone_args args));
  let after = Xpiler_obs.Metrics.snapshot ~stable_only:true () in
  Alcotest.(check bool) "stable snapshot unchanged" true (before = after)

let () =
  Alcotest.run "machine"
    [ ( "interp",
        [ Alcotest.test_case "vecadd" `Quick test_vecadd;
          Alcotest.test_case "sync semantics" `Quick test_sync_semantics;
          Alcotest.test_case "tiled gemm" `Quick test_tiled_gemm;
          Alcotest.test_case "mlp intrinsic" `Quick test_intrinsic_mlp;
          Alcotest.test_case "dp4a intrinsic" `Quick test_intrinsic_dp4a;
          Alcotest.test_case "out-of-bounds" `Quick test_oob_raises;
          Alcotest.test_case "fuel" `Quick test_fuel
        ] );
      ( "checker",
        [ Alcotest.test_case "scope legality" `Quick test_checker_scope;
          Alcotest.test_case "axis legality" `Quick test_checker_axis;
          Alcotest.test_case "intrinsic platform" `Quick test_checker_intrinsic_platform;
          Alcotest.test_case "alignment" `Quick test_checker_alignment;
          Alcotest.test_case "capacity" `Quick test_checker_capacity;
          Alcotest.test_case "sync on cpu" `Quick test_checker_sync_on_cpu
        ] );
      ( "costmodel",
        [ Alcotest.test_case "cache reduces traffic" `Quick test_cost_cache_reduces_traffic;
          Alcotest.test_case "cross-validation vs interpreter" `Quick
            test_costmodel_cross_validation;
          Alcotest.test_case "parallel speedup" `Quick test_cost_parallel_speedup;
          Alcotest.test_case "tensorize faster" `Quick test_cost_tensorize_faster
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_barrier_determinism ]);
      ("parity", [ Alcotest.test_case "error-message parity" `Quick test_error_message_parity ]);
      ( "cache",
        [ Alcotest.test_case "cold vs warm identical" `Quick test_cold_vs_warm;
          Alcotest.test_case "stable metrics untouched" `Quick test_stable_metrics_untouched
        ] )
    ]
