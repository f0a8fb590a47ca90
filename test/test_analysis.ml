(* Static analyzer: the four check classes on seeded neural-oracle faults,
   zero false positives on every golden kernel, and the static fast path
   through localization/repair. *)

open Xpiler_ir
open Xpiler_machine
open Xpiler_ops
open Xpiler_neural
module A = Xpiler_analysis.Analyzer
module Rng = Xpiler_util.Rng
module Vclock = Xpiler_util.Vclock

let rng seed = Rng.create seed

let extents_of (op : Opdef.t) shape =
  List.map (fun (b : Opdef.buffer_spec) -> (b.buf_name, b.size shape)) op.Opdef.buffers

let has_check c fs = List.exists (fun (f : A.finding) -> f.A.check = c) fs

(* the paper's barrier kernel: reverse through a shared tile *)
let reversal ~sync =
  let open Expr.Infix in
  Kernel.make ~name:"rev"
    ~params:[ Builder.buffer "inp"; Builder.buffer "out" ]
    ~launch:[ (Axis.Thread_x, 64) ]
    [ Builder.alloc "tile" Scope.Shared 64;
      Builder.par_for Axis.Thread_x "threadIdx.x" (int 64)
        ([ Builder.store "tile" (v "threadIdx.x") (load "inp" (v "threadIdx.x")) ]
        @ (if sync then [ Builder.sync ] else [])
        @ [ Builder.store "out" (v "threadIdx.x") (load "tile" (int 63 - v "threadIdx.x")) ])
    ]

let rev_extents = [ ("inp", 64); ("out", 64) ]

(* ---- no false positives ------------------------------------------------------ *)

(* every golden idiom kernel, every operator, every platform: silence.
   This is the same sweep `dune build @lint` runs through the CLI. *)
let test_goldens_clean () =
  List.iter
    (fun (op : Opdef.t) ->
      let shape = List.hd op.Opdef.shapes in
      let extents = extents_of op shape in
      List.iter
        (fun (p : Platform.t) ->
          let k = Idiom.source p.Platform.id op shape in
          match A.analyze ~extents k with
          | [] -> ()
          | fs ->
            Alcotest.failf "%s @ %s: %s" op.name
              (Platform.id_to_string p.Platform.id)
              (String.concat "; " (List.map A.finding_to_string fs)))
        Platform.all)
    Registry.all

let test_sync_version_clean () =
  Alcotest.(check int) "no findings" 0 (List.length (A.analyze ~extents:rev_extents (reversal ~sync:true)))

(* ---- check 1: data race (missing barrier) ----------------------------------- *)

let test_race_missing_sync () =
  match Fault.inject_sync (rng 1) (reversal ~sync:true) with
  | None -> Alcotest.fail "no sync site"
  | Some (k', f) ->
    Alcotest.(check string) "fault class" "omitted a barrier" f.Fault.description;
    let fs = A.errors (A.analyze ~extents:rev_extents k') in
    Alcotest.(check bool) "race flagged" true (has_check A.Race fs);
    let race = List.find (fun (x : A.finding) -> x.A.check = A.Race) fs in
    Alcotest.(check bool) "parallelism category" true (race.A.diag.Diag.category = `Parallelism);
    Alcotest.(check bool) "names the shared tile" true (List.mem "tile" race.A.buffers);
    Alcotest.(check bool) "store sites attached" true (race.A.sites <> [])

(* block-level axes never share Shared-scope storage: binding the same loop
   to blockIdx.x must NOT race (each block owns its tile) *)
let test_no_race_across_blocks () =
  let open Expr.Infix in
  let k =
    Kernel.make ~name:"blocks"
      ~params:[ Builder.buffer "inp"; Builder.buffer "out" ]
      ~launch:[ (Axis.Block_x, 64) ]
      [ Builder.alloc "tile" Scope.Shared 64;
        Builder.par_for Axis.Block_x "blockIdx.x" (int 64)
          [ Builder.store "tile" (int 0) (load "inp" (v "blockIdx.x"));
            Builder.store "out" (v "blockIdx.x") (load "tile" (int 0))
          ]
      ]
  in
  Alcotest.(check int) "clean" 0 (List.length (A.analyze ~extents:rev_extents k))

(* ---- check 2: barrier divergence --------------------------------------------- *)

let divergent_sync =
  let open Expr.Infix in
  Kernel.make ~name:"div"
    ~params:[ Builder.buffer "inp"; Builder.buffer "out" ]
    ~launch:[ (Axis.Thread_x, 64) ]
    [ Builder.alloc "tile" Scope.Shared 64;
      Builder.par_for Axis.Thread_x "t" (int 64)
        [ Builder.store "tile" (v "t") (load "inp" (v "t"));
          Builder.if_ (v "t" < int 32) [ Builder.sync ];
          Builder.store "out" (v "t") (load "tile" (v "t"))
        ]
    ]

let test_barrier_divergence () =
  let fs = A.errors (A.analyze ~extents:rev_extents divergent_sync) in
  Alcotest.(check bool) "flagged" true (has_check A.Barrier_divergence fs);
  (* the interpreter is sequential and silently tolerates the divergent
     barrier — exactly the bug class only the static check can see *)
  let args =
    [ ("inp", Interp.Buf (Tensor.random (rng 3) 64)); ("out", Interp.Buf (Tensor.create 64)) ]
  in
  (match Interp.run divergent_sync args with
  | _ -> ()
  | exception _ -> Alcotest.fail "interpreter should tolerate the divergent sync");
  (* ... and it surfaces as a modelled runtime error for localization *)
  let report = Xpiler_repair.Localize.of_findings fs in
  match report.Xpiler_repair.Localize.runtime_error with
  | Some msg ->
    Alcotest.(check bool) "modelled deadlock" true
      (String.length msg >= 17 && String.sub msg 0 17 = "modelled deadlock")
  | None -> Alcotest.fail "barrier finding must produce a modelled runtime error"

(* ---- check 3: out-of-bounds --------------------------------------------------- *)

let relu = Registry.find_exn "relu"
let relu_shape = List.hd relu.Opdef.shapes
let relu_vnni () = Idiom.source Platform.Vnni relu relu_shape
let relu_extents = extents_of relu relu_shape

let test_oob_index_fault () =
  match Fault.inject_index (rng 3) (relu_vnni ()) with
  | None -> Alcotest.fail "no store site"
  | Some (k', _) ->
    let fs = A.errors (A.analyze ~extents:relu_extents k') in
    Alcotest.(check bool) "oob flagged" true (has_check A.Out_of_bounds fs);
    let f = List.find (fun (x : A.finding) -> x.A.check = A.Out_of_bounds) fs in
    Alcotest.(check bool) "memory category" true (f.A.diag.Diag.category = `Memory);
    Alcotest.(check bool) "repair sites attached" true (f.A.sites <> [])

let test_oob_bound_fault () =
  (* find a seed that grows a loop extent (shrinking one is benign) *)
  let rec find seed =
    if seed > 50 then Alcotest.fail "no growing bound fault in 50 seeds"
    else
      match Fault.inject_bound (rng seed) (relu_vnni ()) with
      | Some (k', f)
        when f.Fault.description = "loop bound off by 1"
             || f.Fault.description = "loop bound off by 2" -> k'
      | _ -> find (seed + 1)
  in
  let k' = find 0 in
  let fs = A.errors (A.analyze ~extents:relu_extents k') in
  Alcotest.(check bool) "oob flagged" true (has_check A.Out_of_bounds fs)

(* a guard that excludes the violating points must silence the report *)
let test_oob_guard_respected () =
  let open Expr.Infix in
  let k =
    Kernel.make ~name:"guarded"
      ~params:[ Builder.buffer "inp"; Builder.buffer "out" ]
      [ Builder.for_ "i" (int 64)
          [ Builder.if_ (v "i" < int 63)
              [ Builder.store "out" (v "i") (load "inp" (v "i" + int 1)) ]
          ]
      ]
  in
  let unguarded =
    Kernel.make ~name:"oob"
      ~params:[ Builder.buffer "inp"; Builder.buffer "out" ]
      [ Builder.for_ "i" (int 64)
          [ Builder.store "out" (v "i") (load "inp" (v "i" + int 1)) ]
      ]
  in
  let ex = [ ("inp", 64); ("out", 64) ] in
  Alcotest.(check int) "guarded clean" 0 (List.length (A.analyze ~extents:ex k));
  Alcotest.(check bool) "unguarded flagged" true
    (has_check A.Out_of_bounds (A.errors (A.analyze ~extents:ex unguarded)))

(* structurally equal stores are still different sites: the finding on the
   second loop's store names that store, not its twin in the first loop *)
let test_oob_site_of_equal_store () =
  let open Expr.Infix in
  let copy extent =
    Builder.for_ "i" (int extent) [ Builder.store "o" (v "i") (load "a" (v "i")) ]
  in
  let k =
    Kernel.make ~name:"twins"
      ~params:[ Builder.buffer "a"; Builder.buffer "o" ]
      [ copy 64; copy 65 ]
  in
  let fs = A.errors (A.analyze ~extents:[ ("a", 64); ("o", 64) ] k) in
  Alcotest.(check bool) "oob flagged" true (has_check A.Out_of_bounds fs);
  List.iter
    (fun (f : A.finding) ->
      Alcotest.(check (list string))
        "second loop's sites" [ "bound#1 i (=65)"; "index#1 -> o" ]
        (List.map Site.to_string f.A.sites))
    fs

(* ---- check 4: def-before-use on staged buffers -------------------------------- *)

let gemm = Registry.find_exn "gemm"
let gemm_shape = List.hd gemm.Opdef.shapes

let test_uninit_staged_read () =
  let k = Idiom.source Platform.Bang gemm gemm_shape in
  let ex = extents_of gemm gemm_shape in
  (* seed 0 elides a staging copy-in on the bang gemm (verified stable: the
     fault injector is deterministic per seed) *)
  match Fault.inject (rng 0) ~target:Platform.bang Fault.Structural Fault.Memory k with
  | Some (k', f) ->
    Alcotest.(check string) "fault class" "omitted a staging copy" f.Fault.description;
    let fs = A.errors (A.analyze ~extents:ex k') in
    Alcotest.(check bool) "uninit flagged" true (has_check A.Uninit_read fs)
  | None -> Alcotest.fail "no memory fault site"

(* ---- static localization and repair ------------------------------------------- *)

(* analyzer findings alone localize a missing-sync fault: failing buffer and
   candidate sites appear in the report with no probe-execution search *)
let test_localize_without_probes () =
  match Fault.inject_sync (rng 1) (reversal ~sync:true) with
  | None -> Alcotest.fail "no sync site"
  | Some (k', _) ->
    let fs = A.errors (A.analyze ~extents:rev_extents k') in
    let report = Xpiler_repair.Localize.of_findings fs in
    Alcotest.(check bool) "tile implicated" true
      (List.mem "tile" report.Xpiler_repair.Localize.failing_buffers);
    Alcotest.(check bool) "sites ranked" true (report.Xpiler_repair.Localize.sites <> [])

(* the static fast path repairs the same fault strictly cheaper: analyzer
   sites skip the 240s-per-round probe localization (Vclock charges 30s) *)
let test_static_repair_cheaper () =
  match Fault.inject_index (rng 3) (relu_vnni ()) with
  | None -> Alcotest.fail "no store site"
  | Some (broken, _) ->
    let findings = A.errors (A.analyze ~extents:relu_extents broken) in
    Alcotest.(check bool) "statically diagnosed" true (findings <> []);
    let c_static = Vclock.create () and c_dyn = Vclock.create () in
    let repaired = function
      | Xpiler_repair.Repairer.Repaired { kernel; _ } -> Some kernel
      | Xpiler_repair.Repairer.Gave_up _ -> None
    in
    let r_static =
      repaired
        (Xpiler_repair.Repairer.repair ~static:findings ~clock:c_static
           ~platform:Platform.vnni ~op:relu ~shape:relu_shape broken)
    in
    let r_dyn =
      repaired
        (Xpiler_repair.Repairer.repair ~clock:c_dyn ~platform:Platform.vnni ~op:relu
           ~shape:relu_shape broken)
    in
    (match (r_static, r_dyn) with
    | Some ks, Some kd ->
      Alcotest.(check bool) "static fix passes" true
        (Unit_test.check relu relu_shape ks = Unit_test.Pass);
      Alcotest.(check bool) "dynamic fix passes" true
        (Unit_test.check relu relu_shape kd = Unit_test.Pass)
    | _ -> Alcotest.fail "both paths must repair");
    Alcotest.(check bool)
      (Printf.sprintf "static (%.0fs) strictly cheaper than dynamic (%.0fs)"
         (Vclock.elapsed c_static) (Vclock.elapsed c_dyn))
      true
      (Vclock.elapsed c_static < Vclock.elapsed c_dyn)

(* the pre-validation stage must not change what the pipeline can translate *)
let test_pipeline_outcome_parity () =
  let cases =
    [ (Platform.Cuda, Platform.Bang, "gemm"); (Platform.Cuda, Platform.Vnni, "relu");
      (Platform.Bang, Platform.Cuda, "softmax") ]
  in
  List.iter
    (fun (src, dst, name) ->
      let op = Registry.find_exn name in
      let shape = List.hd op.Opdef.shapes in
      let run config = Xpiler_core.Xpiler.transcompile ~config ~src ~dst ~op ~shape () in
      let with_a = run Xpiler_core.Config.default in
      let without_a = run Xpiler_core.Config.without_analysis in
      Alcotest.(check string)
        (Printf.sprintf "%s %s->%s" name (Platform.id_to_string src) (Platform.id_to_string dst))
        (Xpiler_core.Xpiler.status_to_string without_a.Xpiler_core.Xpiler.status)
        (Xpiler_core.Xpiler.status_to_string with_a.Xpiler_core.Xpiler.status))
    cases

(* statically-diagnosed programs skip the interpreter: the Static_analysis
   stage is charged, and on analyzer-clean validations nothing else changes *)
let test_vclock_stage_charged () =
  let op = Registry.find_exn "gemm" in
  let shape = List.hd op.Opdef.shapes in
  let o =
    Xpiler_core.Xpiler.transcompile ~config:Xpiler_core.Config.default ~src:Platform.Cuda
      ~dst:Platform.Bang ~op ~shape ()
  in
  Alcotest.(check bool) "static-analysis stage charged" true
    (Vclock.stage_total o.Xpiler_core.Xpiler.clock Vclock.Static_analysis > 0.0)

let () =
  Alcotest.run "analysis"
    [ ( "clean",
        [ Alcotest.test_case "all goldens lint clean" `Quick test_goldens_clean;
          Alcotest.test_case "reversal with barrier is clean" `Quick test_sync_version_clean;
          Alcotest.test_case "no race across block axes" `Quick test_no_race_across_blocks;
          Alcotest.test_case "guards silence oob" `Quick test_oob_guard_respected
        ] );
      ( "faults",
        [ Alcotest.test_case "missing sync races" `Quick test_race_missing_sync;
          Alcotest.test_case "divergent barrier deadlocks" `Quick test_barrier_divergence;
          Alcotest.test_case "index fault out of bounds" `Quick test_oob_index_fault;
          Alcotest.test_case "bound fault out of bounds" `Quick test_oob_bound_fault;
          Alcotest.test_case "equal stores are distinct sites" `Quick test_oob_site_of_equal_store;
          Alcotest.test_case "elided staging copy uninit" `Quick test_uninit_staged_read
        ] );
      ( "repair",
        [ Alcotest.test_case "localize without probes" `Quick test_localize_without_probes;
          Alcotest.test_case "static repair strictly cheaper" `Quick test_static_repair_cheaper;
          Alcotest.test_case "pipeline outcome parity" `Quick test_pipeline_outcome_parity;
          Alcotest.test_case "vclock stage charged" `Quick test_vclock_stage_charged
        ] )
    ]
