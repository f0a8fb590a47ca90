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

(* The fiber schedule, pinned: round 1 runs the threads in thread order,
   each later round in the reverse of the round before, and a chain with no
   barrier runs each thread to completion in thread order (the compiled
   engine runs it without fibers). Each thread stores [out[t]] twice, with
   or without a barrier between the stores; a two-level chain runs its
   threads in lexicographic order. *)
let store_order ~levels ~with_sync =
  let open Expr.Infix in
  let t, chain =
    match levels with
    | 1 -> (v "tx", fun body -> [ Builder.par_for Axis.Thread_x "tx" (int 4) body ])
    | _ ->
      ( (v "tx" * int 2) + v "ty",
        fun body ->
          [ Builder.par_for Axis.Thread_x "tx" (int 2)
              [ Builder.par_for Axis.Thread_y "ty" (int 2) body ]
          ] )
  in
  let k =
    Kernel.make ~name:"order" ~params:[ Builder.buffer "out" ]
      (chain
         ((Builder.store "out" t (flt 1.0) :: (if with_sync then [ Builder.sync ] else []))
         @ [ Builder.store "out" t (flt 2.0) ]))
  in
  List.map
    (fun run ->
      let stores = ref [] in
      ignore
        (run ~trace:(fun _ i _ -> stores := i :: !stores) k
           [ ("out", Interp.Buf (Tensor.create 4)) ]
          : Interp.stats);
      List.rev !stores)
    [ (fun ~trace k a -> Interp.run ~trace k a); (fun ~trace k a -> Interp.run_tree ~trace k a) ]

let test_fiber_order () =
  List.iter
    (fun (levels, with_sync, expected) ->
      List.iter2
        (fun engine stores ->
          Alcotest.(check (list int))
            (Printf.sprintf "%d-level chain, %s, %s" levels
               (if with_sync then "one barrier" else "no barrier")
               engine)
            expected stores)
        [ "compiled"; "tree" ]
        (store_order ~levels ~with_sync))
    [ (1, true, [ 0; 1; 2; 3; 3; 2; 1; 0 ]);
      (1, false, [ 0; 0; 1; 1; 2; 2; 3; 3 ]);
      (2, true, [ 0; 1; 2; 3; 3; 2; 1; 0 ]);
      (2, false, [ 0; 0; 1; 1; 2; 2; 3; 3 ])
    ];
  (* a thread's [Alloc] is its own across barriers: after the other
     threads allocated theirs, each still reads the value it stored *)
  let k =
    let open Expr.Infix in
    Kernel.make ~name:"private_alloc" ~params:[ Builder.buffer "out" ]
      [ Builder.par_for Axis.Thread_x "tx" (int 3)
          [ Builder.alloc "s" Scope.Local 4;
            Builder.store "s" (int 0) (v "tx" + int 1);
            Builder.sync;
            Builder.sync;
            Builder.store "out" (v "tx") (load "s" (int 0))
          ]
      ]
  in
  List.iter
    (fun (engine, run) ->
      let out = Tensor.create 3 in
      ignore (run k [ ("out", Interp.Buf out) ] : Interp.stats);
      Alcotest.(check (list (float 0.0)))
        ("private alloc across barriers, " ^ engine) [ 1.0; 2.0; 3.0 ] (Array.to_list out.data))
    [ ("compiled", fun k a -> Interp.run k a); ("tree", fun k a -> Interp.run_tree k a) ]

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

(* The auto-tuner scores every candidate with [Costmodel.throughput], so its
   walk must stay cheap. Over the 84 golden sources (every operator at its
   first shape, on every platform), the walk that kept a [Hashtbl] of
   buffer scopes, an [Expr.fold] per expression and a closure per helper
   allocated 332.9 minor words per call (x86-64, OCaml 5.1); this gate
   holds the call to at most half of that. *)
let test_costmodel_allocation () =
  let kernels =
    List.concat_map
      (fun (op : Xpiler_ops.Opdef.t) ->
        List.map
          (fun (p : Platform.t) ->
            (p, Xpiler_ops.Idiom.source p.Platform.id op (List.hd op.Xpiler_ops.Opdef.shapes)))
          Platform.all)
      Xpiler_ops.Registry.all
  in
  Alcotest.(check int) "golden sources" 84 (List.length kernels);
  let run () =
    List.iter
      (fun (p, k) -> ignore (Sys.opaque_identity (Costmodel.throughput p k ~shapes:[])))
      kernels
  in
  run ();
  let reps = 20 in
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    run ()
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int (reps * List.length kernels) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per call <= 166" per_call)
    true (Stdlib.( <= ) per_call 166.0)

(* A scalar read from a float scratch tensor holds a float, so it gets a
   float slot and its fold over the tensor runs lowered. When every load
   counted as boxed, [mx = s[0]] boxed [mx] and each [mx = max(mx, s[p])]
   ran as one boxed statement. *)
let test_scratch_max_unboxed () =
  let open Expr.Infix in
  let k =
    Kernel.make ~name:"scratch_max"
      ~params:[ Builder.buffer "a"; Builder.buffer "out" ]
      ~launch:[]
      [ Builder.alloc "s" Scope.Local 64;
        Builder.for_ "p" (int 64) [ Builder.store "s" (v "p") (load "a" (v "p") * flt 2.0) ];
        Builder.for_ "i" (int 64)
          [ Builder.let_ "mx" (load "s" (int 0));
            Builder.for_ "p" (int 64)
              [ Builder.assign "mx" (Expr.Binop (Expr.Max, v "mx", load "s" (v "p"))) ];
            Builder.store "out" (v "i") (v "mx" + load "s" (v "i"))
          ]
      ]
  in
  let args () =
    [ ("a", Interp.Buf (Tensor.random (rng ()) 64)); ("out", Interp.Buf (Tensor.create 64)) ]
  in
  let a_tree = args () and a_comp = args () in
  let s_tree = Interp.run_tree k a_tree in
  let c = Compile.compile k in
  let s_comp = Compile.run c a_comp in
  let buffers = Test_support.Tcommon.buffers in
  Alcotest.(check bool) "same stats" true (Stdlib.( = ) s_tree s_comp);
  Alcotest.(check bool) "same outputs" true (Stdlib.( = ) (buffers a_tree) (buffers a_comp));
  let before = Gc.minor_words () in
  let s = Compile.run c a_comp in
  let per_step = (Gc.minor_words () -. before) /. float_of_int s.steps in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per step <= 0.1" per_step)
    true (Stdlib.( <= ) per_step 0.1)

(* A loop with an empty body does nothing but count its iterations, on
   both engines, whether it stands alone, heads another empty loop or sits
   in a loop of rows; run to completion and out of fuel. *)
let test_empty_loop_bodies () =
  let open Expr.Infix in
  let mk name body =
    Kernel.make ~name ~params:[ Builder.buffer "a"; Builder.buffer "out" ] ~launch:[] body
  in
  let kernels =
    [ mk "empty" [ Builder.for_ "i" (int 4) [] ];
      mk "empty_nest" [ Builder.for_ "i" (int 3) [ Builder.for_ "j" (int 5) [] ] ];
      mk "empty_in_rows"
        [ Builder.for_ "i" (int 4)
            [ Builder.let_ "x" (flt 2.0);
              Builder.for_ "p" (int 3) [];
              Builder.store "out" (v "i") (v "x" * load "a" (v "i"))
            ]
        ]
    ]
  in
  List.iter
    (fun k ->
      List.iter
        (fun fuel ->
          let args () =
            [ ("a", Interp.Buf (Tensor.random (rng ()) 8)); ("out", Interp.Buf (Tensor.create 8)) ]
          in
          let a_tree = args () and a_comp = args () in
          let run engine a = match engine a with s -> Ok s | exception Interp.Runtime_error m -> Error m in
          let r_tree = run (Interp.run_tree ~fuel k) a_tree in
          let r_comp = run (Interp.run ~fuel k) a_comp in
          let name = Printf.sprintf "%s, fuel %d" k.Kernel.name fuel in
          Alcotest.(check bool) (name ^ ": same stats or error") true (Stdlib.( = ) r_tree r_comp);
          Alcotest.(check bool)
            (name ^ ": same outputs")
            true
            (Stdlib.( = ) (Test_support.Tcommon.buffers a_tree) (Test_support.Tcommon.buffers a_comp)))
        [ 200_000_000; 7 ])
    kernels

(* A one-level thread loop that reaches no barrier and assigns no variable
   bound outside it is the serial loop it equals, so it lowers with the
   loop of rows around it: the run enters lowered code once. Outputs,
   stats and errors equal the tree engine's, run to completion, out of
   fuel, and with a row that reads past [a]. *)
let test_thread_loop_in_rows () =
  let open Expr.Infix in
  let k ~rows =
    Kernel.make ~name:"thread_rows"
      ~params:[ Builder.buffer "a"; Builder.buffer "b"; Builder.buffer "out" ]
      ~launch:[ (Axis.Thread_x, 16) ]
      [ Builder.for_ "j" (int rows)
          [ Builder.let_ "acc" (flt 0.0);
            Builder.alloc "t" Scope.Local 16;
            Builder.par_for Axis.Thread_x "threadIdx.x" (int 16)
              [ Builder.store "t" (v "threadIdx.x")
                  (load "a" ((v "j" * int 16) + v "threadIdx.x") * load "b" (v "threadIdx.x"))
              ];
            Builder.for_ "p" (int 16) [ Builder.assign "acc" (v "acc" + load "t" (v "p")) ];
            Builder.store "out" (v "j") (v "acc")
          ]
      ]
  in
  let args () =
    [ ("a", Interp.Buf (Tensor.random (rng ()) 128));
      ("b", Interp.Buf (Tensor.random (rng ()) 16));
      ("out", Interp.Buf (Tensor.create 9))
    ]
  in
  List.iter
    (fun (rows, fuel, lowered) ->
      let k = k ~rows in
      let a_tree = args () and a_comp = args () in
      let r_tree =
        match Interp.run_tree ~fuel k a_tree with
        | s -> (s, None)
        | exception Interp.Runtime_error m -> (Compile.fresh_stats (), Some m)
      in
      let r = Interp.run_receipt ~fuel k a_comp in
      let name = Printf.sprintf "%d rows, fuel %d" rows fuel in
      Option.iter (fun n -> Alcotest.(check int) (name ^ ": lowered entries") n r.Interp.lowered) lowered;
      Alcotest.(check (option string)) (name ^ ": same error") (snd r_tree) r.Interp.error;
      if Option.is_none r.Interp.error then
        Alcotest.(check bool) (name ^ ": same stats") true (Stdlib.( = ) (fst r_tree) r.Interp.stats);
      Alcotest.(check bool)
        (name ^ ": same outputs")
        true
        (Stdlib.( = ) (Test_support.Tcommon.buffers a_tree) (Test_support.Tcommon.buffers a_comp)))
    [ (8, 200_000_000, Some 1); (8, 150, None); (9, 200_000_000, None) ]

(* [(float)3 / 2] divides floats: 1.5 on both engines, and still 1.5 once
   [Stmt.simplify] has folded the cast (into [3.0f], not the int [3], whose
   division by 2 is 1) *)
let test_float_cast_of_int_literal () =
  let k =
    Kernel.make ~name:"cast" ~params:[ Builder.buffer "out" ] ~launch:[]
      [ Builder.store "out" (Expr.Int 0)
          (Expr.Binop (Expr.Div, Expr.Cast (Dtype.F32, Expr.Int 3), Expr.Int 2))
      ]
  in
  List.iter
    (fun (name, k) ->
      List.iter
        (fun (engine, run) ->
          let out = Tensor.create 1 in
          ignore (run k [ ("out", Interp.Buf out) ]);
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s, %s" name engine)
            1.5 (Tensor.get out 0))
        [ ("tree", fun k args -> Interp.run_tree k args);
          ("compiled", fun k args -> Interp.run k args)
        ])
    [ ("as written", k); ("simplified", Kernel.map_body Stmt.simplify k) ]

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

(* handcrafted dynamic errors: Interp.run raises the same Runtime_error
   message as a fresh compile and as the tree interpreter *)
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
      Alcotest.(check string) (k.Kernel.name ^ ": Interp.run") reference (msg (Interp.run ~fuel k)))
    cases

(* Every operator's serial kernel and golden sources at its first shape run
   on both engines with the same outputs, bit for bit, and the same five
   counts. These are the real conv, pool and attention nests, which the
   generated kernels of the differential property never reach. *)
let test_registry_engine_parity () =
  let open Xpiler_ops in
  List.iter
    (fun (op : Opdef.t) ->
      let shape = List.hd op.Opdef.shapes in
      let kernels =
        ("serial", op.Opdef.serial shape)
        :: List.map
             (fun p -> (Platform.id_to_string p, Idiom.source p op shape))
             Platform.[ Cuda; Bang; Hip; Vnni ]
      in
      List.iter
        (fun (label, k) ->
          let args = Unit_test.make_args (Xpiler_util.Rng.create 20250706) op shape in
          let run engine =
            let a = Tcommon.clone_args args in
            let (s : Interp.stats) = engine k a in
            ( [ s.steps; s.stores; s.intrinsic_elems; s.memcpy_elems; s.barriers ],
              List.filter_map
                (function
                  | _, Interp.Buf t -> Some (Array.map Int64.bits_of_float t.Tensor.data)
                  | _ -> None)
                a )
          in
          let stats_tree, bufs_tree = run (fun k a -> Interp.run_tree k a) in
          let stats_comp, bufs_comp = run (fun k a -> Interp.run k a) in
          let name = op.Opdef.name ^ " " ^ label in
          Alcotest.(check (list int)) (name ^ ": stats") stats_tree stats_comp;
          Alcotest.(check bool) (name ^ ": buffers") true (bufs_tree = bufs_comp))
        kernels)
    Registry.all

(* cold vs warm: a compiled kernel run again (its closures reused) on the
   arguments of a structurally equal, separately built kernel produces its
   first run's outputs, stats and traces *)
let test_cold_vs_warm () =
  let k = kernel_of_seed 7 in
  let k' = kernel_of_seed 7 in
  let args = Tcommon.make_args (Xpiler_util.Rng.create 9) ~buf_size k [] in
  let a_cold = Tcommon.clone_args args in
  let a_warm = Tcommon.clone_args args in
  let cold = Compile.compile k in
  let r_cold = observe (fun ~trace _ a -> Compile.run ~trace cold a) k a_cold in
  let r_warm = observe (fun ~trace _ a -> Compile.run ~trace cold a) k' a_warm in
  Alcotest.(check bool) "cold = warm (stats+trace)" true (compare r_cold r_warm = 0);
  Alcotest.(check bool) "cold = warm (buffers)" true
    (compare (Tcommon.buffers a_cold) (Tcommon.buffers a_warm) = 0)

(* the metrics snapshot (the cross-jobs determinism contract) is touched
   only by Interp.run's compile count, never by compiling or executing a
   kernel: pool workers run kernels on whichever domain is free *)
let test_stable_metrics_untouched () =
  let k = kernel_of_seed 11 in
  let args = Tcommon.make_args (Xpiler_util.Rng.create 4) ~buf_size k [] in
  let before = Xpiler_obs.Metrics.snapshot () in
  let c = Compile.compile k in
  ignore (Compile.run c (Tcommon.clone_args args));
  ignore (Compile.run ~trace:(fun _ _ _ -> ()) c (Tcommon.clone_args args));
  ignore (Interp.run_tree k (Tcommon.clone_args args));
  let after = Xpiler_obs.Metrics.snapshot () in
  Alcotest.(check bool) "snapshot unchanged" true (before = after)

let () =
  Alcotest.run "machine"
    [ ( "interp",
        [ Alcotest.test_case "vecadd" `Quick test_vecadd;
          Alcotest.test_case "sync semantics" `Quick test_sync_semantics;
          Alcotest.test_case "fiber order" `Quick test_fiber_order;
          Alcotest.test_case "tiled gemm" `Quick test_tiled_gemm;
          Alcotest.test_case "mlp intrinsic" `Quick test_intrinsic_mlp;
          Alcotest.test_case "dp4a intrinsic" `Quick test_intrinsic_dp4a;
          Alcotest.test_case "out-of-bounds" `Quick test_oob_raises;
          Alcotest.test_case "fuel" `Quick test_fuel;
          Alcotest.test_case "scratch max runs unboxed" `Quick test_scratch_max_unboxed;
          Alcotest.test_case "empty loop bodies" `Quick test_empty_loop_bodies;
          Alcotest.test_case "thread loop lowers with its rows" `Quick test_thread_loop_in_rows;
          Alcotest.test_case "float cast of an int literal" `Quick test_float_cast_of_int_literal
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
          Alcotest.test_case "tensorize faster" `Quick test_cost_tensorize_faster;
          Alcotest.test_case "throughput allocates half the old walk" `Quick
            test_costmodel_allocation
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_barrier_determinism ]);
      ( "parity",
        [ Alcotest.test_case "error-message parity" `Quick test_error_message_parity;
          Alcotest.test_case "registry kernels on both engines" `Quick
            test_registry_engine_parity
        ] );
      ( "cache",
        [ Alcotest.test_case "cold vs warm identical" `Quick test_cold_vs_warm;
          Alcotest.test_case "stable metrics untouched" `Quick test_stable_metrics_untouched
        ] )
    ]
