open Xpiler_ir
open Xpiler_machine
open Xpiler_passes
open Test_support.Tcommon

let e = Expr.Infix.int

(* scalar vecadd over 256 elements on a SIMT grid *)
let cuda_vecadd =
  let open Expr.Infix in
  Kernel.make ~name:"vecadd"
    ~params:[ Builder.buffer "a"; Builder.buffer "b"; Builder.buffer "c" ]
    ~launch:[ (Axis.Block_x, 4); (Axis.Thread_x, 64) ]
    [ Builder.par_for Axis.Block_x "blockIdx.x" (int 4)
        [ Builder.par_for Axis.Thread_x "threadIdx.x" (int 64)
            [ Builder.let_ "i" ((v "blockIdx.x" * int 64) + v "threadIdx.x");
              Builder.store "c" (v "i") (load "a" (v "i") + load "b" (v "i"))
            ]
        ]
    ]

(* barrier kernel: block-wise reversal through shared memory *)
let cuda_reverse =
  let open Expr.Infix in
  Kernel.make ~name:"rev"
    ~params:[ Builder.buffer "inp"; Builder.buffer "out" ]
    ~launch:[ (Axis.Block_x, 4); (Axis.Thread_x, 16) ]
    [ Builder.par_for Axis.Block_x "blockIdx.x" (int 4)
        [ Builder.alloc "tile" Scope.Shared 16;
          Builder.par_for Axis.Thread_x "threadIdx.x" (int 16)
            [ Builder.store "tile" (v "threadIdx.x")
                (load "inp" ((v "blockIdx.x" * int 16) + v "threadIdx.x"));
              Builder.sync;
              Builder.store "out"
                ((v "blockIdx.x" * int 16) + v "threadIdx.x")
                (load "tile" (int 15 - v "threadIdx.x"))
            ]
        ]
    ]

(* barrier nested inside a serial loop (tiled-GEMM shape) *)
let cuda_nested_sync =
  let open Expr.Infix in
  Kernel.make ~name:"nested"
    ~params:[ Builder.buffer "inp"; Builder.buffer "out" ]
    ~launch:[ (Axis.Thread_x, 8) ]
    [ Builder.alloc "tile" Scope.Shared 8;
      Builder.par_for Axis.Thread_x "threadIdx.x" (int 8)
        [ Builder.for_ "r" (int 4)
            [ Builder.store "tile" (v "threadIdx.x")
                (load "inp" ((v "r" * int 8) + v "threadIdx.x"));
              Builder.sync;
              Builder.store "out"
                ((v "r" * int 8) + v "threadIdx.x")
                (load "tile" (int 7 - v "threadIdx.x"));
              Builder.sync
            ]
        ]
    ]

let serial_scale =
  let open Expr.Infix in
  Kernel.make ~name:"scale"
    ~params:[ Builder.buffer "a"; Builder.buffer "c" ]
    [ Builder.for_ "i" (int 256) [ Builder.store "c" (v "i") (load "a" (v "i") * flt 2.0) ] ]

let serial_gemm m n k =
  let open Expr.Infix in
  Kernel.make ~name:"gemm"
    ~params:[ Builder.buffer "A"; Builder.buffer "B"; Builder.buffer "C" ]
    [ Builder.for_ "i" (int m)
        [ Builder.for_ "j" (int n)
            [ Builder.let_ "acc" (flt 0.0);
              Builder.for_ "k"(int k)
                [ Builder.assign "acc"
                    (v "acc" + (load "A" ((v "i" * int k) + v "k")
                               * load "B" ((v "k" * int n) + v "j")))
                ];
              Builder.store "C" ((v "i" * int n) + v "j") (v "acc")
            ]
        ]
    ]

let sz_for name =
  (* buffer sizes for the GEMM kernels: A 16x8, B 8x12, C 16x12 *)
  match name with
  | "A" -> 16 * 8
  | "B" -> 8 * 12
  | "C" -> 16 * 12
  | _ -> 1024

(* ---- loop recovery -------------------------------------------------------- *)

let test_recovery_vecadd () =
  let k' = expect_ok (Loop_pass.recovery cuda_vecadd) in
  Alcotest.(check int) "launch cleared" 1 (Kernel.total_parallelism k');
  Alcotest.(check (list string)) "no axes" [] (List.map Axis.to_string (Stmt.axes_used k'.Kernel.body));
  check_equivalent "recovery vecadd" cuda_vecadd k'

let test_recovery_barrier () =
  let k' = expect_ok (Loop_pass.recovery cuda_reverse) in
  Alcotest.(check bool) "no syncs" false (Stmt.has_sync k'.Kernel.body);
  check_equivalent "recovery barrier" cuda_reverse k'

let test_recovery_nested_sync () =
  let k' = expect_ok (Loop_pass.recovery cuda_nested_sync) in
  check_equivalent "recovery nested sync" cuda_nested_sync k'

let test_recovery_names_are_serial () =
  let k' = expect_ok (Loop_pass.recovery cuda_vecadd) in
  List.iter
    (fun var ->
      Alcotest.(check bool)
        (var ^ " is a plain name")
        false
        (String.contains var '.'))
    (Stmt.loop_vars k'.Kernel.body)

(* more axis-named loops than any fixed pool of fresh names: each gets its
   own serial name, in order, and the result is a value, not an exception *)
let test_recovery_many_axis_loops () =
  let open Expr.Infix in
  let k =
    Kernel.make ~name:"many" ~params:[ Builder.buffer "c" ] ~launch:[ (Axis.Thread_x, 4) ]
      (List.init 65 (fun j ->
           Builder.par_for Axis.Thread_x "threadIdx.x" (int 4)
             [ Builder.store "c" (v "threadIdx.x" + int Stdlib.(4 * j)) (flt (float_of_int j)) ]))
  in
  match Pass.apply ~platform:Platform.cuda Pass.Loop_recovery k with
  | Error _ -> ()
  | Ok k' ->
    Alcotest.(check (list string)) "fresh names in order"
      (List.init 65 (Printf.sprintf "i%d"))
      (Stmt.loop_vars k'.Kernel.body);
    check_equivalent "recovery of 65 loops" k k'

(* ---- loop bind ------------------------------------------------------------- *)

let test_bind_roundtrip () =
  let seq = expect_ok (Loop_pass.recovery cuda_vecadd) in
  let outer = List.hd (Stmt.loop_vars seq.Kernel.body) in
  let bound = expect_ok (Loop_pass.bind ~var:outer ~axis:Axis.Block_x seq) in
  Alcotest.(check (option int)) "launch recorded" (Some 4)
    (Kernel.axis_extent bound Axis.Block_x);
  check_equivalent "bind preserves semantics" seq bound

let test_bind_rejects_duplicate () =
  expect_error "axis taken"
    (Loop_pass.bind ~var:"i" ~axis:Axis.Block_x cuda_vecadd)

(* ---- loop split ------------------------------------------------------------- *)

let test_split_divisible () =
  let k' = expect_ok (Loop_pass.split ~var:"i" ~factor:32 serial_scale) in
  Alcotest.(check int) "two loops now" 2 (List.length (Stmt.loop_vars k'.Kernel.body));
  check_equivalent "split divisible" serial_scale k'

let test_split_with_guard () =
  let k' = expect_ok (Loop_pass.split ~var:"i" ~factor:48 serial_scale) in
  let has_guard = ref false in
  Stmt.iter (fun s -> match s with Stmt.If _ -> has_guard := true | _ -> ()) k'.Kernel.body;
  Alcotest.(check bool) "guard inserted" true !has_guard;
  check_equivalent "split guarded" serial_scale k'

let test_split_too_large () =
  expect_error "factor > extent" (Loop_pass.split ~var:"i" ~factor:512 serial_scale)

(* The direct index [v_0 * f + v_1] is the one [Linear.normalize] built:
   every constant-extent serial loop of every golden source and of its
   depth-1 action states, split by every factor [Knobs.split_factors] offers
   on some platform, from its own start and from a non-zero one, gives the
   kernel (or the error) that [Test_support.Naive.split] gives. *)
let test_split_matches_naive () =
  let module Tuning = Xpiler_tuning in
  let states =
    List.concat_map
      (fun (op : Xpiler_ops.Opdef.t) ->
        let shape = List.hd op.Xpiler_ops.Opdef.shapes in
        List.concat_map
          (fun (q : Platform.t) ->
            let source = Xpiler_ops.Idiom.source q.Platform.id op shape in
            source
            :: List.concat_map
                 (fun (p : Platform.t) ->
                   List.filter_map
                     (fun spec -> Result.to_option (Pass.apply ~platform:p spec source))
                     (Tuning.Actions.enumerate p source))
                 Platform.all)
          Platform.all)
      Xpiler_ops.Registry.all
  in
  let shifted var (k : Kernel.t) =
    Kernel.with_body k
      (Stmt.map_block
         (function
           | Stmt.For r when String.equal r.var var -> Some (Stmt.For { r with lo = Expr.Int 3 })
           | _ -> None)
         k.Kernel.body)
  in
  let same a b =
    match (a, b) with
    | Ok a, Ok b -> Kernel.equal a b
    | Error a, Error b -> String.equal a b
    | _ -> false
  in
  let splits = ref 0 in
  List.iter
    (fun (k : Kernel.t) ->
      List.iter
        (fun (var, extent) ->
          let factors =
            List.sort_uniq compare
              (List.concat_map (fun p -> Tuning.Knobs.split_factors p ~extent) Platform.all)
          in
          List.iter
            (fun factor ->
              List.iter
                (fun k ->
                  incr splits;
                  if
                    not
                      (same (Loop_pass.split ~var ~factor k)
                         (Test_support.Naive.split ~var ~factor k))
                  then
                    Alcotest.failf "split %s by %d differs from the normalized index:\n%s" var
                      factor (Stmt.to_string k.Kernel.body))
                [ k; shifted var k ])
            (1 :: factors))
        (Tuning.Knobs.splittable_loops k))
    states;
  (* 50,734 at the time of writing *)
  Alcotest.(check bool) "splits" true (!splits > 10_000)

(* ---- fuse / reorder / expansion / contraction ------------------------------- *)

let test_fuse () =
  let split = expect_ok (Loop_pass.split ~var:"i" ~factor:16 serial_scale) in
  let fused = expect_ok (Loop_pass.fuse ~var:"i_0" split) in
  Alcotest.(check int) "single loop" 1 (List.length (Stmt.loop_vars fused.Kernel.body));
  check_equivalent "fuse" serial_scale fused

let test_reorder () =
  let g = serial_gemm 16 12 8 in
  let r = expect_ok (Loop_pass.reorder ~var:"i" g) in
  (match r.Kernel.body with
  | [ Stmt.For { var = "j"; body = [ Stmt.For { var = "i"; _ } ]; _ } ] -> ()
  | _ -> Alcotest.fail "loops not interchanged");
  check_equivalent ~buf_size:sz_for "reorder" g r

let test_reorder_imperfect () =
  expect_error "imperfect nest" (Loop_pass.reorder ~var:"j" (serial_gemm 4 4 4))

(* one perfect (i, j) nest over [body], under a serial loop n *)
let nest ?(e1 = 4) ?(e2 = 4) body =
  Kernel.make ~name:"nest"
    ~params:[ Builder.buffer "out"; Builder.buffer "out2"; Builder.buffer "inp";
              Builder.buffer "idx" ]
    [ Builder.for_ "n" (e 3) [ Builder.for_ "i" (e e1) [ Builder.for_ "j" (e e2) body ] ] ]

let reorders k = Result.is_ok (Loop_pass.reorder ~var:"i" k)

let test_reorder_pinned () =
  let open Expr.Infix in
  let store_out index = [ Builder.store "out" index (flt 1.0) ] in
  let case name expected k = Alcotest.(check bool) name expected (reorders k) in
  case "out[i*4 + j] legal" true (nest (store_out ((v "i" * int 4) + v "j")));
  case "out[i + j] illegal" false (nest (store_out (v "i" + v "j")));
  (* i=2,j=0 and i=0,j=1 both write out[4] *)
  case "out[2i + 4j], 4x2, illegal" false
    (nest ~e1:4 ~e2:2 (store_out ((int 2 * v "i") + (int 4 * v "j"))));
  case "extent-1 outer legal" true (nest ~e1:1 (store_out (v "i" + v "j")));
  case "no stores legal" true (nest [ Builder.let_ "t" (v "i" + v "j") ]);
  (* an index that reads memory cannot be evaluated, so it stays illegal *)
  case "out[idx[i] + j] illegal" false (nest (store_out (load "idx" (v "i") + v "j")));
  (* [Linear.decompose] drops the zero-scaled load; evaluation still raises *)
  case "out[0*idx[i] + j] illegal" false
    (nest (store_out ((int 0 * load "idx" (v "i")) + v "j")));
  case "out[0*idx[i] + i*4 + j] illegal" false
    (nest (store_out ((int 0 * load "idx" (v "i")) + (v "i" * int 4) + v "j")));
  (* out is read, and its second store is not at the first store's index *)
  let ij = (v "i" * int 4) + v "j" in
  case "out[4i + j] += 1; out[4i + j + 256] = 1 illegal" false
    (nest
       [ Builder.store "out" ij (load "out" ij + flt 1.0);
         Builder.store "out" (ij + int 256) (flt 1.0)
       ]);
  (* the two stores meet across iterations once n > 0, which the box at
     n = 0 cannot see *)
  case "out[4i + j] and out[4i + j + n] illegal" false
    (nest [ Builder.store "out" ij (flt 1.0); Builder.store "out" (ij + v "n") (flt 2.0) ]);
  (* the inner loop shadows i: the nest adds 4 to out[0], the swapped nest
     adds 1 to each of out[0..3] *)
  case "shadowed inner i illegal" false
    (Kernel.make ~name:"shadow" ~params:[ Builder.buffer "out" ]
       [ Builder.for_ "i" (e 4)
           [ Builder.for_ "i" (e 1) [ Builder.store "out" (v "i") (load "out" (v "i") + flt 1.0) ] ]
       ])

let test_expansion_contraction () =
  let open Expr.Infix in
  let k =
    Kernel.make ~name:"two"
      ~params:[ Builder.buffer "a"; Builder.buffer "b"; Builder.buffer "c" ]
      [ Builder.for_ "i" (int 64)
          [ Builder.store "b" (v "i") (load "a" (v "i") * flt 2.0);
            Builder.store "c" (v "i") (load "a" (v "i") + flt 1.0)
          ]
      ]
  in
  let fissioned = expect_ok (Loop_pass.expansion ~var:"i" k) in
  Alcotest.(check int) "two loops" 2
    (List.length
       (List.filter (function Stmt.For _ -> true | _ -> false) fissioned.Kernel.body));
  check_equivalent "expansion" k fissioned;
  let merged = expect_ok (Loop_pass.contraction ~var:"i" fissioned) in
  check_equivalent "contraction" k merged

let test_expansion_rejects_accumulator () =
  let open Expr.Infix in
  let k =
    Kernel.make ~name:"acc" ~params:[ Builder.buffer "a"; Builder.buffer "c" ]
      [ Builder.let_ "s" (flt 0.0);
        Builder.for_ "i" (int 8)
          [ Builder.assign "s" (v "s" + load "a" (v "i"));
            Builder.store "c" (v "i") (v "s")
          ]
      ]
  in
  expect_error "loop-carried state" (Loop_pass.expansion ~var:"i" k)

(* ---- cache / rescope / pipeline ---------------------------------------------- *)

let test_cache_read () =
  let k' =
    expect_ok
      (Memory_pass.cache ~buf:"a" ~scope:Scope.Nram ~direction:Memory_pass.Read
         ~base:(e 0) ~size:256 serial_scale)
  in
  (match Stmt.allocs k'.Kernel.body with
  | [ ("a_nram", Scope.Nram, _, 256) ] -> ()
  | _ -> Alcotest.fail "cache alloc missing");
  check_equivalent "cache read" serial_scale k'

let test_cache_write () =
  let k' =
    expect_ok
      (Memory_pass.cache ~buf:"c" ~scope:Scope.Nram ~direction:Memory_pass.Write
         ~base:(e 0) ~size:256 serial_scale)
  in
  check_equivalent "cache write" serial_scale k'

let test_cache_under_loop () =
  let open Expr.Infix in
  (* per-task staging: each task handles a 64-element slice *)
  let k =
    Kernel.make ~name:"tasks" ~params:[ Builder.buffer "a"; Builder.buffer "c" ]
      ~launch:[ (Axis.Task_id, 4) ]
      [ Builder.par_for Axis.Task_id "taskId" (int 4)
          [ Builder.for_ "i" (int 64)
              [ Builder.store "c"
                  ((v "taskId" * int 64) + v "i")
                  (load "a" ((v "taskId" * int 64) + v "i") * flt 3.0)
              ]
          ]
      ]
  in
  let k' =
    expect_ok
      (Memory_pass.cache ~buf:"a" ~scope:Scope.Nram ~direction:Memory_pass.Read
         ~under:"taskId"
         ~base:Expr.Infix.(v "taskId" * int 64)
         ~size:64 k)
  in
  (* the staged load index must reduce to just [i] *)
  let reduced = ref false in
  Stmt.iter
    (fun s ->
      match s with
      | Stmt.Store { value; _ } ->
        (match value with
        | Expr.Binop (_, Expr.Load ("a_nram", Expr.Var "i"), _) -> reduced := true
        | _ -> ())
      | _ -> ())
    k'.Kernel.body;
  Alcotest.(check bool) "index cancelled to i" true !reduced;
  check_equivalent ~buf_size:(fun _ -> 256) "cache under loop" k k'

let test_rescope () =
  let open Expr.Infix in
  let k =
    Kernel.make ~name:"r" ~params:[ Builder.buffer "a" ]
      [ Builder.alloc "buf" Scope.Shared 64;
        Builder.memcpy ~dst:"buf" ~dst_off:(int 0) ~src:"a" ~src_off:(int 0) (int 64)
      ]
  in
  let k' = expect_ok (Memory_pass.rescope ~buf:"buf" ~scope:Scope.Nram k) in
  match Stmt.allocs k'.Kernel.body with
  | [ (_, Scope.Nram, _, _) ] -> ()
  | _ -> Alcotest.fail "rescope failed"

let test_pipeline () =
  let open Expr.Infix in
  let k =
    Kernel.make ~name:"p" ~params:[ Builder.buffer "a"; Builder.buffer "c" ]
      [ Builder.alloc "buf" Scope.Nram 64;
        Builder.for_ "t" (int 4)
          [ Builder.memcpy ~dst:"buf" ~dst_off:(int 0) ~src:"a" ~src_off:(v "t" * int 64)
              (int 64);
            Builder.intrin Intrin.Vec_scale ~dst:("buf", int 0) ~srcs:[ ("buf", int 0) ]
              [ int 64; flt 2.0 ];
            Builder.memcpy ~dst:"c" ~dst_off:(v "t" * int 64) ~src:"buf" ~src_off:(int 0)
              (int 64)
          ]
      ]
  in
  let k' = expect_ok (Memory_pass.pipeline ~var:"t" k) in
  (match k'.Kernel.body with
  | [ _; Stmt.For { kind = Stmt.Pipelined; _ } ] -> ()
  | _ -> Alcotest.fail "loop not pipelined");
  check_equivalent "pipeline semantics unchanged" k k';
  expect_error "nothing to overlap" (Memory_pass.pipeline ~var:"i" serial_scale)

let test_decache () =
  (* staging introduced by a cache pass can be removed again *)
  let cached =
    expect_ok
      (Memory_pass.cache ~buf:"a" ~scope:Scope.Nram ~direction:Memory_pass.Read ~base:(e 0)
         ~size:256 serial_scale)
  in
  let removed = expect_ok (Memory_pass.decache ~buf:"a_nram" cached) in
  Alcotest.(check int) "alloc gone" 0 (List.length (Stmt.allocs removed.Kernel.body));
  check_equivalent "decache" serial_scale removed

let test_decache_window_offset () =
  let open Expr.Infix in
  (* window staged at a non-zero base: accesses must be redirected there *)
  let k =
    Kernel.make ~name:"w" ~params:[ Builder.buffer "a"; Builder.buffer "c" ]
      [ Builder.alloc "buf" Scope.Nram 64;
        Builder.memcpy ~dst:"buf" ~dst_off:(int 0) ~src:"a" ~src_off:(int 128) (int 64);
        Builder.for_ "i" (int 64)
          [ Builder.store "c" (v "i") (load "buf" (v "i") * flt 2.0) ]
      ]
  in
  let removed = expect_ok (Memory_pass.decache ~buf:"buf" k) in
  check_equivalent ~buf_size:(fun _ -> 256) "decache offset" k removed;
  (* and the redirected index reads the origin at base + i *)
  let redirected = ref false in
  Stmt.iter
    (fun s ->
      match s with
      | Stmt.Store { value = Expr.Binop (_, Expr.Load ("a", _), _); _ } -> redirected := true
      | _ -> ())
    removed.Kernel.body;
  Alcotest.(check bool) "origin accessed" true !redirected

let test_decache_rejects_scratch () =
  let open Expr.Infix in
  (* a genuine temporary with no staging copies cannot be decached *)
  let k =
    Kernel.make ~name:"t" ~params:[ Builder.buffer "a" ]
      [ Builder.alloc "tmp" Scope.Local 8;
        Builder.for_ "i" (int 8) [ Builder.store "tmp" (v "i") (load "a" (v "i")) ]
      ]
  in
  expect_error "no staging pattern" (Memory_pass.decache ~buf:"tmp" k)

let test_linear_divmod_fold () =
  let open Expr.Infix in
  (* (x / 16) * 16 + x % 16 == x : produced by loop fusion *)
  let fused = ((v "x" / int 16) * int 16) + (v "x" % int 16) in
  Alcotest.(check bool) "folds to x" true (Expr.equal (Linear.normalize fused) (v "x"));
  (* scaled variant: 3*(x/16)*16 + 3*(x%16) == 3x *)
  let scaled = ((v "x" / int 16) * int 48) + ((v "x" % int 16) * int 3) in
  Alcotest.(check bool) "scaled folds" true
    (Expr.equal (Linear.normalize scaled) (Linear.normalize (v "x" * int 3)))

let test_tensorize_conv2d () =
  (* whole-buffer staged NHWC convolution becomes one conv intrinsic *)
  let op = Xpiler_ops.Registry.find_exn "conv2d_nhwc" in
  let shape = List.hd op.Xpiler_ops.Opdef.shapes in
  let k = Xpiler_ops.Idiom.source Platform.Bang op shape in
  Alcotest.(check bool) "conv intrinsic" true
    (List.exists
       (fun (i : Intrin.t) -> Intrin.equal_op i.op Intrin.Conv2d)
       (Stmt.intrinsics k.Kernel.body))

(* ---- tensorize / detensorize --------------------------------------------------- *)

let bang = Platform.bang
let vnni = Platform.vnni

(* On the MLU, vector intrinsics require NRAM operands, so the kernels under
   test stage their data on-chip first (as the cache pass would). *)
let staged_scale =
  let open Expr.Infix in
  Kernel.make ~name:"scale"
    ~params:[ Builder.buffer "a"; Builder.buffer "c" ]
    [ Builder.alloc "an" Scope.Nram 256;
      Builder.alloc "cn" Scope.Nram 256;
      Builder.memcpy ~dst:"an" ~dst_off:(int 0) ~src:"a" ~src_off:(int 0) (int 256);
      Builder.for_ "i" (int 256) [ Builder.store "cn" (v "i") (load "an" (v "i") * flt 2.0) ];
      Builder.memcpy ~dst:"c" ~dst_off:(int 0) ~src:"cn" ~src_off:(int 0) (int 256)
    ]

let test_tensorize_elementwise () =
  let k' = expect_ok (Tensor_pass.tensorize ~platform:bang staged_scale) in
  (match Stmt.intrinsics k'.Kernel.body with
  | [ { op = Intrin.Vec_scale; _ } ] -> ()
  | _ -> Alcotest.fail ("expected vec_scale:\n" ^ Kernel.to_string k'));
  check_equivalent "tensorize scale" staged_scale k'

let test_tensorize_scope_blindness_rejected () =
  (* un-staged global operands must NOT be tensorized on the MLU *)
  expect_error "global operands" (Tensor_pass.tensorize ~platform:bang serial_scale)

let test_tensorize_binary_and_unary () =
  let open Expr.Infix in
  let k =
    Kernel.make ~name:"act"
      ~params:[ Builder.buffer "a"; Builder.buffer "b"; Builder.buffer "c" ]
      [ Builder.alloc "an" Scope.Nram 128;
        Builder.alloc "bn" Scope.Nram 128;
        Builder.alloc "cn" Scope.Nram 128;
        Builder.memcpy ~dst:"an" ~dst_off:(int 0) ~src:"a" ~src_off:(int 0) (int 128);
        Builder.memcpy ~dst:"bn" ~dst_off:(int 0) ~src:"b" ~src_off:(int 0) (int 128);
        Builder.for_ "i" (int 128)
          [ Builder.store "cn" (v "i") (load "an" (v "i") + load "bn" (v "i")) ];
        Builder.for_ "i" (int 128)
          [ Builder.store "bn" (v "i") (Expr.Unop (Expr.Exp, load "cn" (v "i"))) ];
        Builder.memcpy ~dst:"c" ~dst_off:(int 0) ~src:"cn" ~src_off:(int 0) (int 128);
        Builder.memcpy ~dst:"b" ~dst_off:(int 0) ~src:"bn" ~src_off:(int 0) (int 128)
      ]
  in
  let k' = expect_ok (Tensor_pass.tensorize ~platform:bang k) in
  Alcotest.(check int) "two intrinsics" 2 (List.length (Stmt.intrinsics k'.Kernel.body));
  check_equivalent "tensorize add+exp" k k'

let staged_gemm m n k =
  let open Expr.Infix in
  let mk = Stdlib.( * ) m k and kn = Stdlib.( * ) k n and mn = Stdlib.( * ) m n in
  Kernel.make ~name:"gemm"
    ~params:[ Builder.buffer "A"; Builder.buffer "B"; Builder.buffer "C" ]
    [ Builder.alloc "An" Scope.Nram mk;
      Builder.alloc "Bw" Scope.Wram kn;
      Builder.alloc "Cn" Scope.Nram mn;
      Builder.memcpy ~dst:"An" ~dst_off:(int 0) ~src:"A" ~src_off:(int 0) (int mk);
      Builder.memcpy ~dst:"Bw" ~dst_off:(int 0) ~src:"B" ~src_off:(int 0) (int kn);
      Builder.for_ "i" (int m)
        [ Builder.for_ "j" (int n)
            [ Builder.let_ "acc" (flt 0.0);
              Builder.for_ "p" (int k)
                [ Builder.assign "acc"
                    (v "acc" + (load "An" ((v "i" * int k) + v "p")
                               * load "Bw" ((v "p" * int n) + v "j")))
                ];
              Builder.store "Cn" ((v "i" * int n) + v "j") (v "acc")
            ]
        ];
      Builder.memcpy ~dst:"C" ~dst_off:(int 0) ~src:"Cn" ~src_off:(int 0) (int mn)
    ]

let test_tensorize_matmul () =
  let g = staged_gemm 16 12 8 in
  let k' = expect_ok (Tensor_pass.tensorize ~platform:bang g) in
  (match
     List.filter
       (fun (i : Intrin.t) -> Intrin.equal_op i.op Intrin.Mlp)
       (Stmt.intrinsics k'.Kernel.body)
   with
  | [ { params = [ Expr.Int 16; Expr.Int 8; Expr.Int 12 ]; _ } ] -> ()
  | _ -> Alcotest.fail ("expected mlp(16,8,12):\n" ^ Kernel.to_string k'));
  check_equivalent ~buf_size:sz_for "tensorize matmul" g k'

let test_tensorize_matmul_accumulate_form () =
  (* zero fill + direct accumulation, the shape detensorization produces *)
  let open Expr.Infix in
  let g =
    Kernel.make ~name:"gemm"
      ~params:[ Builder.buffer "A"; Builder.buffer "B"; Builder.buffer "C" ]
      [ Builder.alloc "An" Scope.Nram 128;
        Builder.alloc "Bw" Scope.Wram 96;
        Builder.alloc "Cn" Scope.Nram 192;
        Builder.memcpy ~dst:"An" ~dst_off:(int 0) ~src:"A" ~src_off:(int 0) (int 128);
        Builder.memcpy ~dst:"Bw" ~dst_off:(int 0) ~src:"B" ~src_off:(int 0) (int 96);
        Builder.intrin Intrin.Vec_fill ~dst:("Cn", int 0) [ int 192; flt 0.0 ];
        Builder.for_ "i" (int 16)
          [ Builder.for_ "j" (int 12)
              [ Builder.for_ "p" (int 8)
                  [ Builder.store "Cn" ((v "i" * int 12) + v "j")
                      (load "Cn" ((v "i" * int 12) + v "j")
                      + (load "An" ((v "i" * int 8) + v "p")
                        * load "Bw" ((v "p" * int 12) + v "j")))
                  ]
              ]
          ];
        Builder.memcpy ~dst:"C" ~dst_off:(int 0) ~src:"Cn" ~src_off:(int 0) (int 192)
      ]
  in
  let k' = expect_ok (Tensor_pass.tensorize ~platform:bang g) in
  Alcotest.(check bool) "mlp present" true
    (List.exists
       (fun (i : Intrin.t) -> Intrin.equal_op i.op Intrin.Mlp)
       (Stmt.intrinsics k'.Kernel.body));
  check_equivalent ~buf_size:sz_for "accumulate-form matmul" g k'

let test_tensorize_reduction () =
  let open Expr.Infix in
  let k =
    Kernel.make ~name:"sum" ~params:[ Builder.buffer "a"; Builder.buffer "out" ]
      [ Builder.alloc "an" Scope.Nram 128;
        Builder.memcpy ~dst:"an" ~dst_off:(int 0) ~src:"a" ~src_off:(int 0) (int 128);
        Builder.let_ "acc" (flt 0.0);
        Builder.for_ "i" (int 128) [ Builder.assign "acc" (v "acc" + load "an" (v "i")) ];
        Builder.store "out" (int 0) (v "acc")
      ]
  in
  let k' = expect_ok (Tensor_pass.tensorize ~platform:bang k) in
  (match Stmt.intrinsics k'.Kernel.body with
  | [ { op = Intrin.Vec_reduce_sum; _ } ] -> ()
  | _ -> Alcotest.fail "expected reduce_sum");
  check_equivalent "tensorize reduction" k k'

let test_tensorize_dot_product () =
  let open Expr.Infix in
  (* acc += a[i]*b[i] over NRAM operands becomes vec_mul + reduce_sum *)
  let k =
    Kernel.make ~name:"dot" ~params:[ Builder.buffer "a"; Builder.buffer "b"; Builder.buffer "y" ]
      [ Builder.alloc "an" Scope.Nram 128;
        Builder.alloc "bn" Scope.Nram 128;
        Builder.memcpy ~dst:"an" ~dst_off:(int 0) ~src:"a" ~src_off:(int 0) (int 128);
        Builder.memcpy ~dst:"bn" ~dst_off:(int 0) ~src:"b" ~src_off:(int 0) (int 128);
        Builder.let_ "acc" (flt 0.0);
        Builder.for_ "p" (int 128)
          [ Builder.assign "acc" (v "acc" + (load "an" (v "p") * load "bn" (v "p"))) ];
        Builder.store "y" (int 0) (v "acc")
      ]
  in
  let k' = expect_ok (Tensor_pass.tensorize ~platform:bang k) in
  let ops = List.map (fun (i : Intrin.t) -> i.op) (Stmt.intrinsics k'.Kernel.body) in
  Alcotest.(check bool) "vec_mul" true (List.mem Intrin.Vec_mul ops);
  Alcotest.(check bool) "reduce_sum" true (List.mem Intrin.Vec_reduce_sum ops);
  check_equivalent "dot product" k k'

let test_tensorize_dp4a () =
  let open Expr.Infix in
  let k =
    Kernel.make ~name:"dot"
      ~params:
        [ Builder.buffer ~dtype:Dtype.I8 "a"; Builder.buffer ~dtype:Dtype.I8 "b";
          Builder.buffer ~dtype:Dtype.I32 "c" ]
      [ Builder.for_ "g" (int 32)
          [ Builder.let_ "acc" (int 0);
            Builder.for_ "j" (int 4)
              [ Builder.assign "acc"
                  (v "acc"
                  + (load "a" ((v "g" * int 4) + v "j") * load "b" ((v "g" * int 4) + v "j")))
              ];
            Builder.store "c" (v "g") (v "acc")
          ]
      ]
  in
  let k' = expect_ok (Tensor_pass.tensorize ~platform:vnni k) in
  (match
     List.filter
       (fun (i : Intrin.t) -> Intrin.equal_op i.op Intrin.Dp4a)
       (Stmt.intrinsics k'.Kernel.body)
   with
  | [ { params = [ Expr.Int 128 ]; _ } ] -> ()
  | intrs ->
    Alcotest.fail
      (Printf.sprintf "expected dp4a(128), got %d:\n%s" (List.length intrs)
         (Kernel.to_string k')));
  check_equivalent "tensorize dp4a" k k'

let test_tensorize_alignment_guard () =
  let open Expr.Infix in
  (* 100 elements: not a multiple of the MLU's 64-element granularity *)
  let k =
    Kernel.make ~name:"odd" ~params:[ Builder.buffer "a"; Builder.buffer "c" ]
      [ Builder.alloc "an" Scope.Nram 128;
        Builder.alloc "cn" Scope.Nram 128;
        Builder.memcpy ~dst:"an" ~dst_off:(int 0) ~src:"a" ~src_off:(int 0) (int 100);
        Builder.for_ "i" (int 100) [ Builder.store "cn" (v "i") (load "an" (v "i") * flt 2.0) ];
        Builder.memcpy ~dst:"c" ~dst_off:(int 0) ~src:"cn" ~src_off:(int 0) (int 100)
      ]
  in
  expect_error "misaligned extent" (Tensor_pass.tensorize ~platform:bang k)

let test_detensorize_inverse () =
  let g = staged_gemm 16 12 8 in
  let t = expect_ok (Tensor_pass.tensorize ~platform:bang g) in
  let d = expect_ok (Tensor_pass.detensorize t) in
  Alcotest.(check int) "no intrinsics left" 0 (List.length (Stmt.intrinsics d.Kernel.body));
  check_equivalent ~buf_size:sz_for "detensorize gemm" g d

let test_detensorize_all_ops () =
  let open Expr.Infix in
  let mk op srcs params =
    Kernel.make ~name:"k"
      ~params:[ Builder.buffer "x"; Builder.buffer "y"; Builder.buffer "z" ]
      [ Builder.intrin op ~dst:("z", int 0) ~srcs params ]
  in
  let cases =
    [ mk Intrin.Vec_add [ ("x", e 0); ("y", e 0) ] [ e 64 ];
      mk Intrin.Vec_sub [ ("x", e 0); ("y", e 0) ] [ e 64 ];
      mk Intrin.Vec_mul [ ("x", e 0); ("y", e 0) ] [ e 64 ];
      mk Intrin.Vec_max [ ("x", e 0); ("y", e 0) ] [ e 64 ];
      mk Intrin.Vec_min [ ("x", e 0); ("y", e 0) ] [ e 64 ];
      mk Intrin.Vec_exp [ ("x", e 0) ] [ e 64 ];
      mk Intrin.Vec_tanh [ ("x", e 0) ] [ e 64 ];
      mk Intrin.Vec_copy [ ("x", e 0) ] [ e 64 ];
      mk Intrin.Vec_scale [ ("x", e 0) ] [ e 64; Expr.Float 1.5 ];
      mk Intrin.Vec_adds [ ("x", e 0) ] [ e 64; Expr.Float 0.5 ];
      mk Intrin.Vec_fill [] [ e 64; Expr.Float 7.0 ];
      mk Intrin.Vec_reduce_sum [ ("x", e 0) ] [ e 64 ];
      mk Intrin.Vec_reduce_max [ ("x", e 0) ] [ e 64 ];
      mk Intrin.Dp4a [ ("x", e 0); ("y", e 0) ] [ e 64 ]
    ]
  in
  List.iteri
    (fun idx k ->
      let d = expect_ok (Tensor_pass.detensorize k) in
      check_equivalent ~buf_size:(fun _ -> 64)
        (Printf.sprintf "detensorize case %d" idx)
        k d)
    cases

(* ---- pass dispatch / composition ------------------------------------------------ *)

(* [Rewrite.rewrite_nth] numbers matches in source order, also when they
   sit in nested loops and in both branches of an [If] (fault injection
   picks its site this way); what it does not rewrite stays shared *)
let test_rewrite_nth_source_order () =
  let open Expr.Infix in
  let st n = Builder.store (Printf.sprintf "s%d" n) (int 0) (flt 1.0) in
  let block =
    [ Builder.for_ "i" (int 2)
        [ st 0;
          Builder.for_ "j" (int 2)
            [ st 1;
              Builder.if_ (v "j" < int 1)
                [ st 2; Builder.for_ "k" (int 2) [ st 3 ] ]
                ~else_:[ st 4 ]
            ];
          st 5
        ];
      st 6
    ]
  in
  let is_store = function Stmt.Store _ -> true | _ -> false in
  let stores b =
    Stmt.fold (fun acc s -> match s with Stmt.Store r -> r.buf :: acc | _ -> acc) [] b
    |> List.rev
  in
  Alcotest.(check int) "matches" 7 (Rewrite.count_matching is_store block);
  for n = 0 to 6 do
    let hit _ = Stmt.Annot { key = "hit"; value = "" } in
    let b' = Rewrite.rewrite_nth n is_store hit block in
    Alcotest.(check (list string))
      (Printf.sprintf "match %d" n)
      (List.filter (fun b -> b <> Printf.sprintf "s%d" n) (stores block))
      (stores b');
    match (block, b') with
    | [ _; last ], [ _; last' ] ->
      Alcotest.(check bool) "untouched statement shared" Stdlib.(n < 6) (last == last')
    | _ -> Alcotest.fail "block shape changed"
  done;
  Alcotest.(check bool) "no match, no copy" true
    (Rewrite.rewrite_nth 7 is_store (fun _ -> Stmt.Sync) block == block)

let test_full_pipeline_gemm_to_bang () =
  (* sequential GEMM -> split rows across tasks -> cache -> tensorize:
     a miniature of the paper's CUDA->BANG pipeline *)
  let g = serial_gemm 16 12 8 in
  let apply spec k = expect_ok (Pass.apply ~platform:bang spec k) in
  let k = apply (Pass.Loop_split { var = "i"; factor = 4 }) g in
  let k = apply (Pass.Loop_bind { var = "i_0"; axis = Axis.Task_id }) k in
  let k =
    apply
      (Pass.Cache
         { buf = "A"; scope = Scope.Nram; direction = Memory_pass.Read;
           under = Some "taskId";
           base = Expr.Infix.(v "taskId" * int 32);
           size = 32
         })
      k
  in
  let k =
    apply
      (Pass.Cache
         { buf = "B"; scope = Scope.Wram; direction = Memory_pass.Read; under = Some "taskId";
           base = e 0; size = 96
         })
      k
  in
  let k =
    apply
      (Pass.Cache
         { buf = "C"; scope = Scope.Nram; direction = Memory_pass.Write;
           under = Some "taskId";
           base = Expr.Infix.(v "taskId" * int 48);
           size = 48
         })
      k
  in
  let k = apply Pass.Tensorize k in
  (match Stmt.intrinsics k.Kernel.body with
  | [ { op = Intrin.Mlp; _ } ] -> ()
  | _ -> Alcotest.fail ("pipeline did not tensorize:\n" ^ Kernel.to_string k));
  (* the final program must compile on the MLU and stay correct *)
  (match Checker.compile bang k with
  | Ok () -> ()
  | Error es -> Alcotest.fail (Checker.errors_to_string es));
  check_equivalent ~buf_size:sz_for "pipeline preserves gemm" g k

(* ---- property tests -------------------------------------------------------------- *)

let arb_factor = QCheck.oneofl [ 2; 4; 8; 16; 32; 3; 5; 7 ]

let prop_split_preserves =
  QCheck.Test.make ~name:"split preserves semantics for any factor" ~count:40 arb_factor
    (fun factor ->
      match Loop_pass.split ~var:"i" ~factor serial_scale with
      | Ok k' -> divergence serial_scale k' = None
      | Error _ -> factor > 256)

let prop_split_then_fuse_identity =
  QCheck.Test.make ~name:"fuse after divisible split is semantically identity" ~count:20
    (QCheck.oneofl [ 2; 4; 8; 16 ])
    (fun factor ->
      match Loop_pass.split ~var:"i" ~factor serial_scale with
      | Error _ -> false
      | Ok split -> (
        match Loop_pass.fuse ~var:"i_0" split with
        | Error _ -> false
        | Ok fused -> divergence serial_scale fused = None))

let prop_cache_any_window =
  (* the cached window must cover the region's accesses, so the kernel under
     test reads exactly [base, base+size) *)
  QCheck.Test.make ~name:"cache of any covering window preserves semantics" ~count:30
    (QCheck.pair (QCheck.int_range 0 3) (QCheck.oneofl [ 64; 128; 256 ]))
    (fun (q, size) ->
      let base = q * 64 in
      if base + size > 1024 then true
      else begin
        let k =
          let open Expr.Infix in
          Kernel.make ~name:"window"
            ~params:[ Builder.buffer "a"; Builder.buffer "c" ]
            [ Builder.for_ "i" (int size)
                [ Builder.store "c" (v "i") (load "a" (v "i" + int base) * flt 2.0) ]
            ]
        in
        match
          Memory_pass.cache ~buf:"a" ~scope:Scope.Nram ~direction:Memory_pass.Read
            ~base:(e base) ~size k
        with
        | Ok k' -> divergence k k' = None
        | Error _ -> false
      end)

(* Interchange legality against a brute-force oracle: the read-modify-write
   rule plus enumerating the (i, j) box with every other variable at 0.
   Indexes are mostly affine in i, j and n (the closed-form class), some
   not (the enumerated fallback), including a zero-scaled load that
   [Linear.decompose] drops but evaluation rejects. *)
let oracle_legal ~e1 ~e2 body =
  let v1 = "i" and v2 = "j" in
  let written = Stmt.buffers_written body and read = Stmt.buffers_read body in
  let stores = ref [] in
  Stmt.iter (function Stmt.Store r -> stores := (r.buf, r.index) :: !stores | _ -> ()) body;
  let rmw_ok =
    List.for_all
      (fun buf ->
        (not (List.mem buf read))
        ||
        let idxs = List.filter_map (fun (b, i) -> if b = buf then Some i else None) !stores in
        let loads = ref [] in
        Stmt.iter
          (fun s ->
            ignore
              (Stmt.map_exprs
                 (Expr.map (function
                   | Expr.Load (b, i) when b = buf ->
                     loads := i :: !loads;
                     None
                   | _ -> None))
                 s))
          body;
        match List.rev idxs with
        | [] -> true
        | si :: rest ->
          List.for_all (Linear.equal_linear si) rest
          && List.for_all (Linear.equal_linear si) !loads)
      written
  in
  let outer_constant =
    let rec pairs = function
      | [] -> true
      | (b, i) :: rest ->
        List.for_all
          (fun (b', i') ->
            b <> b'
            ||
            let d = Linear.decompose (Expr.Binop (Expr.Sub, i, i')) in
            (Linear.drop_var v1 (Linear.drop_var v2 d)).Linear.terms = [])
          rest
        && pairs rest
    in
    pairs !stores
  in
  let injective () =
    let seen = Hashtbl.create 64 in
    try
      for a = 0 to e1 - 1 do
        for b = 0 to e2 - 1 do
          List.iter
            (fun (buf, index) ->
              let x =
                Expr.eval_int (fun x -> if x = v1 then a else if x = v2 then b else 0) index
              in
              match Hashtbl.find_opt seen (buf, x) with
              | Some ab when ab <> (a, b) -> raise Exit
              | _ -> Hashtbl.replace seen (buf, x) (a, b))
            !stores
        done
      done;
      true
    with _ -> false
  in
  e1 * e2 <= 4096 && rmw_ok && outer_constant && injective ()

let gen_nest =
  let open QCheck.Gen in
  let coeff = int_range (-8) 8 in
  let affine =
    map
      (fun (((a, b), c), k) ->
        Expr.Infix.(
          (int a * v "i") + (v "j" * int b) - (int c * v "n") + int k))
      (pair (pair (pair coeff coeff) coeff) (int_range 0 16))
  in
  let index =
    frequency
      [ (6, affine);
        (1, map (fun x -> Expr.Infix.(x / int 2)) affine);
        (1, map (fun x -> Expr.Infix.(x % int 3)) affine);
        (1, map (fun x -> Expr.Infix.(load "idx" x + v "j")) affine);
        (1, map (fun x -> Expr.Cast (Dtype.I32, x)) affine);
        (1, map (fun x -> Expr.Infix.((v "i" * v "j") + x)) affine);
        (1, map (fun x -> Expr.Infix.((int 0 * load "idx" (v "i")) + x)) affine)
      ]
  in
  let store =
    map3
      (fun buf index value ->
        let value =
          match value with
          | 0 -> Expr.Float 1.0
          | 1 -> Expr.Load ("inp", index)
          | 2 -> Expr.Infix.(load buf index + flt 1.0)
          | _ -> Expr.Infix.(load buf (v "i") + flt 1.0)
        in
        Builder.store buf index value)
      (oneofl [ "out"; "out2" ]) index
      (frequencyl [ (3, 0); (3, 1); (2, 2); (1, 3) ])
  in
  let extent = oneof [ int_range 0 8; int_range 0 64 ] in
  let stores = frequencyl [ (1, 0); (4, 1); (2, 2); (1, 3) ] in
  triple extent extent (stores >>= fun n -> list_repeat n store)

(* [Loop_pass.interchange_legal] against the walk it replaced
   ([Test_support.Naive.interchange_legal], a per-pair [Linear.equal_linear]
   and a tuple-keyed enumeration) on generated nest bodies *)
let prop_interchange_matches_naive =
  QCheck.Test.make ~name:"interchange legality = naive" ~count:3000
    (QCheck.make
       ~print:(fun seed ->
         let v1, e1, v2, e2, body = Test_support.Kgen.interchange (Xpiler_util.Rng.create seed) in
         Printf.sprintf "%s<%d %s<%d\n%s" v1 e1 v2 e2 (Stmt.to_string body))
       QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      let v1, e1, v2, e2, body = Test_support.Kgen.interchange (Xpiler_util.Rng.create seed) in
      Loop_pass.interchange_legal ~v1 ~e1 ~v2 ~e2 body
      = Test_support.Naive.interchange_legal ~v1 ~e1 ~v2 ~e2 body)

let prop_reorder_matches_oracle =
  QCheck.Test.make ~name:"reorder legal iff brute-force oracle" ~count:1500
    (QCheck.make gen_nest
       ~print:(fun (e1, e2, body) ->
         Printf.sprintf "e1=%d e2=%d\n%s" e1 e2 (Stmt.to_string body)))
    (fun (e1, e2, body) -> reorders (nest ~e1 ~e2 body) = oracle_legal ~e1 ~e2 body)

let () =
  Alcotest.run "passes"
    [ ( "recovery",
        [ Alcotest.test_case "vecadd" `Quick test_recovery_vecadd;
          Alcotest.test_case "barrier fission" `Quick test_recovery_barrier;
          Alcotest.test_case "nested sync interchange" `Quick test_recovery_nested_sync;
          Alcotest.test_case "serial names" `Quick test_recovery_names_are_serial;
          Alcotest.test_case "65 axis-named loops" `Quick test_recovery_many_axis_loops
        ] );
      ( "bind",
        [ Alcotest.test_case "roundtrip" `Quick test_bind_roundtrip;
          Alcotest.test_case "duplicate axis" `Quick test_bind_rejects_duplicate
        ] );
      ( "split",
        [ Alcotest.test_case "divisible" `Quick test_split_divisible;
          Alcotest.test_case "guarded" `Quick test_split_with_guard;
          Alcotest.test_case "too large" `Quick test_split_too_large;
          Alcotest.test_case "direct index = naive" `Quick test_split_matches_naive
        ] );
      ( "reshape",
        [ Alcotest.test_case "fuse" `Quick test_fuse;
          Alcotest.test_case "reorder" `Quick test_reorder;
          Alcotest.test_case "reorder imperfect" `Quick test_reorder_imperfect;
          Alcotest.test_case "reorder pinned legality" `Quick test_reorder_pinned;
          Alcotest.test_case "expansion+contraction" `Quick test_expansion_contraction;
          Alcotest.test_case "expansion accumulator" `Quick test_expansion_rejects_accumulator
        ] );
      ( "memory",
        [ Alcotest.test_case "cache read" `Quick test_cache_read;
          Alcotest.test_case "cache write" `Quick test_cache_write;
          Alcotest.test_case "cache under loop" `Quick test_cache_under_loop;
          Alcotest.test_case "rescope" `Quick test_rescope;
          Alcotest.test_case "decache" `Quick test_decache;
          Alcotest.test_case "decache window offset" `Quick test_decache_window_offset;
          Alcotest.test_case "decache rejects scratch" `Quick test_decache_rejects_scratch;
          Alcotest.test_case "linear div/mod fold" `Quick test_linear_divmod_fold;
          Alcotest.test_case "conv2d tensorize" `Quick test_tensorize_conv2d;
          Alcotest.test_case "pipeline" `Quick test_pipeline
        ] );
      ( "tensorize",
        [ Alcotest.test_case "elementwise" `Quick test_tensorize_elementwise;
          Alcotest.test_case "scope blindness rejected" `Quick
            test_tensorize_scope_blindness_rejected;
          Alcotest.test_case "binary+unary" `Quick test_tensorize_binary_and_unary;
          Alcotest.test_case "matmul accumulate form" `Quick
            test_tensorize_matmul_accumulate_form;
          Alcotest.test_case "matmul" `Quick test_tensorize_matmul;
          Alcotest.test_case "reduction" `Quick test_tensorize_reduction;
          Alcotest.test_case "dot product" `Quick test_tensorize_dot_product;
          Alcotest.test_case "dp4a" `Quick test_tensorize_dp4a;
          Alcotest.test_case "alignment guard" `Quick test_tensorize_alignment_guard;
          Alcotest.test_case "detensorize inverse" `Quick test_detensorize_inverse;
          Alcotest.test_case "detensorize all ops" `Quick test_detensorize_all_ops
        ] );
      ("pipeline", [ Alcotest.test_case "gemm to bang" `Quick test_full_pipeline_gemm_to_bang ]);
      ( "rewrite",
        [ Alcotest.test_case "rewrite_nth in source order" `Quick test_rewrite_nth_source_order ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_split_preserves; prop_split_then_fuse_identity; prop_cache_any_window;
            prop_reorder_matches_oracle; prop_interchange_matches_naive ] )
    ]
