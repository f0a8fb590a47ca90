(* Repair/SMT hot-path guarantees: the overhauled stack — incremental
   watched-constraint solver, process-global solver + verdict memos,
   speculative parallel candidate testing — changes wall-clock time, never
   outcomes or journals. The three contracts asserted here:

   - jobs invariance: with speculative repair on, jobs=1 and jobs=4 produce
     byte-identical trace journals (lowest-index-wins selection + master-side
     canonical effect replay);
   - cold vs warm: re-running a traced translation against warm memos yields
     a byte-identical journal (solver-memo entries carry their original
     search receipts, unit-test verdict-memo entries their run receipts);
   - speculative vs serial: both engines accept the same repair (the first
     passing candidate in batch order). *)

open Xpiler_machine
open Xpiler_ops
open Xpiler_neural
open Xpiler_core
module Solver = Xpiler_smt.Solver
module Memo = Xpiler_smt.Memo
module Repairer = Xpiler_repair.Repairer
module Pool = Xpiler_util.Pool
module Journal = Xpiler_obs.Journal
module Metrics = Xpiler_obs.Metrics

let rng seed = Xpiler_util.Rng.create seed
let gemm = Registry.find_exn "gemm"
let gemm_shape = List.hd gemm.Opdef.shapes

let run ~config =
  Xpiler.transcompile ~config ~src:Platform.Cuda ~dst:Platform.Bang ~op:gemm ~shape:gemm_shape ()

let journal o = Journal.encode o.Xpiler.trace

(* force real worker domains even on a single-core host, where the pool
   otherwise clamps to inline execution and the test would be vacuous *)
let with_max_domains n f =
  let prev = Pool.get_max_domains () in
  Pool.set_max_domains n;
  Fun.protect ~finally:(fun () -> Pool.set_max_domains prev) f

let traced ?(seed = 11) ~jobs scale =
  Config.with_jobs
    (Config.with_trace (Config.with_fault_scale (Config.with_seed Config.default seed) scale)
       Xpiler_obs.Tracer.Detail)
    jobs

let cold () =
  Memo.clear ();
  Unit_test.reset_memo ()

(* speculative batches so far: every batch ends won or lost in the registry *)
let spec_batches () =
  List.fold_left
    (fun n result ->
      n
      + Metrics.value
          (Metrics.counter ~labels:[ ("result", result) ] "xpiler_repair_speculative_total"))
    0 [ "won"; "lost" ]

(* [Unit_test.reference_outputs_seeded] caches the serial reference run
   process-globally (pre-overhaul behaviour): a cold-cache run emits the
   reference's interp.* trace counts, a warm one doesn't. Journal
   comparisons must therefore compare runs on equal cache footing — warm
   the reference entries for a config once, then compare. *)
let warm_refs config =
  cold ();
  ignore (run ~config)

let test_jobs_invariant_journal () =
  with_max_domains 4 @@ fun () ->
  warm_refs (traced ~jobs:1 20.0);
  let mk jobs =
    cold ();
    run ~config:(traced ~jobs 20.0)
  in
  let batches0 = spec_batches () in
  let o1 = mk 1 and o4 = mk 4 in
  Alcotest.(check bool) "speculation actually ran" true (spec_batches () > batches0);
  Alcotest.(check bool) "same status" true (o1.Xpiler.status = o4.Xpiler.status);
  Alcotest.(check bool) "byte-identical target text" true
    (o1.Xpiler.target_text = o4.Xpiler.target_text);
  Alcotest.(check string) "byte-identical journal" (journal o1) (journal o4)

let test_cold_vs_warm_journal () =
  let config = traced ~seed:5 ~jobs:1 18.0 in
  warm_refs config;
  cold ();
  let o_cold = run ~config in
  let hits_after_cold = Memo.hits () in
  let o_warm = run ~config in
  Alcotest.(check bool) "warm run hit the solver memo" true
    (Memo.hits () > hits_after_cold);
  Alcotest.(check bool) "same status" true (o_cold.Xpiler.status = o_warm.Xpiler.status);
  Alcotest.(check string) "byte-identical journal" (journal o_cold) (journal o_warm)

(* unit-test verdict-memo hits, the pipeline's and the repairer's *)
let verdict_memo_hits () =
  List.fold_left
    (fun n name ->
      n + Metrics.value (Metrics.counter ~stable:false ~labels:[ ("result", "hit") ] name))
    0
    [ "xpiler_unit_test_memo_lookups_total"; "xpiler_repair_verdict_memo_lookups_total" ]

(* the verdict memo stays on under tracing: a warm run replays the recorded
   receipts instead of re-running kernels, and its journal is the cold
   run's byte for byte *)
let test_verdict_memo_traced_cold_vs_warm () =
  let config = traced ~seed:3 ~jobs:1 20.0 in
  warm_refs config;
  Unit_test.reset_memo ();
  let o_cold = run ~config in
  let hits = verdict_memo_hits () in
  let o_warm = run ~config in
  Alcotest.(check bool) "warm run hit the verdict memo" true (verdict_memo_hits () > hits);
  Alcotest.(check bool) "same status" true (o_cold.Xpiler.status = o_warm.Xpiler.status);
  Alcotest.(check string) "byte-identical journal" (journal o_cold) (journal o_warm)

let test_speculative_matches_serial_pipeline () =
  let base jobs speculative =
    Config.with_jobs
      { (Config.with_fault_scale (Config.with_seed Config.default 7) 20.0) with
        Config.speculative_repair = speculative
      }
      jobs
  in
  cold ();
  let serial = run ~config:(base 1 false) in
  cold ();
  let spec = with_max_domains 4 (fun () -> run ~config:(base 4 true)) in
  Alcotest.(check bool) "same status" true (serial.Xpiler.status = spec.Xpiler.status);
  Alcotest.(check bool) "byte-identical target text" true
    (serial.Xpiler.target_text = spec.Xpiler.target_text);
  Alcotest.(check bool) "same ledger" true (serial.Xpiler.ledger = spec.Xpiler.ledger)

(* direct repairer-level equality on injected single faults: the speculative
   engine must select exactly the candidate serial first-pass-wins testing
   accepts, with the same test count *)
let test_speculative_matches_serial_repairer () =
  with_max_domains 4 @@ fun () ->
  let checked = ref 0 in
  List.iter
    (fun seed ->
      match Fault.inject_bound (rng seed) (Idiom.source Platform.Cuda gemm gemm_shape) with
      | None -> ()
      | Some (broken, _) ->
        cold ();
        let serial =
          Repairer.repair ~platform:Platform.cuda ~op:gemm ~shape:gemm_shape broken
        in
        cold ();
        let spec =
          Repairer.repair ~speculative:true ~jobs:4 ~platform:Platform.cuda ~op:gemm
            ~shape:gemm_shape broken
        in
        incr checked;
        Alcotest.(check bool)
          (Printf.sprintf "identical outcome for injected fault (seed %d)" seed)
          true
          (serial = spec))
    [ 0; 1; 2; 3; 5; 7; 11 ];
  Alcotest.(check bool) "at least one fault exercised" true (!checked > 0)

(* the fused one-run oracle must agree with the two-run path it replaces *)
let test_fused_oracle_matches_check () =
  let clean = Idiom.source Platform.Bang gemm gemm_shape in
  Alcotest.(check bool) "clean kernel: pass with zero mismatches" true
    (Unit_test.check_scored gemm gemm_shape clean = (Unit_test.Pass, 0));
  let exercised = ref 0 in
  List.iter
    (fun seed ->
      match Fault.inject_bound (rng seed) (Idiom.source Platform.Cuda gemm gemm_shape) with
      | None -> ()
      | Some (broken, _) ->
        incr exercised;
        let fused, score = Unit_test.check_scored gemm gemm_shape broken in
        let plain = Unit_test.check ~trials:1 gemm gemm_shape broken in
        Alcotest.(check bool)
          (Printf.sprintf "verdicts agree (seed %d)" seed)
          true (fused = plain);
        if fused <> Unit_test.Pass then
          Alcotest.(check bool)
            (Printf.sprintf "failing candidate has a positive score (seed %d)" seed)
            true (score > 0))
    [ 0; 1; 2; 3; 5 ];
  Alcotest.(check bool) "at least one fault exercised" true (!exercised > 0)

let () =
  Alcotest.run "repair-hotpath"
    [ ( "determinism",
        [ Alcotest.test_case "jobs=1 vs jobs=4 byte-identical journal" `Slow
            test_jobs_invariant_journal;
          Alcotest.test_case "cold vs warm byte-identical journal" `Slow
            test_cold_vs_warm_journal;
          Alcotest.test_case "traced verdict memo: cold vs warm journal" `Slow
            test_verdict_memo_traced_cold_vs_warm;
          Alcotest.test_case "speculative matches serial (pipeline)" `Slow
            test_speculative_matches_serial_pipeline;
          Alcotest.test_case "speculative matches serial (repairer)" `Quick
            test_speculative_matches_serial_repairer
        ] );
      ( "oracle",
        [ Alcotest.test_case "fused check+score matches check" `Quick
            test_fused_oracle_matches_check
        ] )
    ]
