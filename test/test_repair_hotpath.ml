(* Repair/SMT hot-path guarantees: the overhauled stack — incremental
   watched-constraint solver, session-local solver + verdict memos —
   changes wall-clock time, never outcomes or journals. The contracts
   asserted here:

   - repeat-run identity: two same-seed runs from the same cache state
     produce byte-identical trace journals and stable metrics snapshots;
   - cold vs warm: re-running a traced translation against warm memos yields
     a byte-identical journal (solver-memo entries carry their original
     search receipts, unit-test verdict-memo entries their run receipts);
   - journal honesty: every unit test the repairer counts reaches the
     journal as an interpreter run. *)

open Xpiler_machine
open Xpiler_ops
open Xpiler_neural
open Xpiler_core
module Memo = Xpiler_smt.Memo
module Journal = Xpiler_obs.Journal
module Event = Xpiler_obs.Event
module Metrics = Xpiler_obs.Metrics

let rng seed = Xpiler_util.Rng.create seed
let gemm = Registry.find_exn "gemm"
let gemm_shape = List.hd gemm.Opdef.shapes

let run ~config =
  Xpiler.transcompile ~config ~src:Platform.Cuda ~dst:Platform.Bang ~op:gemm ~shape:gemm_shape ()

let journal o = Journal.encode o.Xpiler.trace

let traced ?(seed = 11) scale =
  Config.with_trace
    (Config.with_fault_scale (Config.with_seed Config.default seed) scale)
    Xpiler_obs.Tracer.Detail

let cold () =
  Memo.clear ();
  Unit_test.reset_memo ()

(* the summed increments of trace counter [name] whose timestamps satisfy
   [within] *)
let count_total ?(within = fun _ -> true) name events =
  List.fold_left
    (fun acc e ->
      match e with
      | Event.Count { name = n; ts; n = k } when n = name && within ts -> acc + k
      | _ -> acc)
    0 events

(* [Unit_test.reference_outputs_seeded] caches the serial reference run
   per session (pre-overhaul behaviour): a cold-cache run emits the
   reference's interp.* trace counts, a warm one doesn't. Journal
   comparisons must therefore compare runs on equal cache footing — warm
   the reference entries for a config once, then compare. *)
let warm_refs config =
  cold ();
  ignore (run ~config)

let test_repeat_run_journal () =
  warm_refs (traced 20.0);
  let mk () =
    cold ();
    Metrics.reset ();
    let o = run ~config:(traced 20.0) in
    (o, Metrics.snapshot ~stable_only:true ())
  in
  let o1, s1 = mk () in
  let o2, s2 = mk () in
  Alcotest.(check bool) "repair actually ran" true
    (count_total "repair.candidates" o1.Xpiler.trace > 0);
  Alcotest.(check bool) "same status" true (o1.Xpiler.status = o2.Xpiler.status);
  Alcotest.(check bool) "byte-identical target text" true
    (o1.Xpiler.target_text = o2.Xpiler.target_text);
  Alcotest.(check string) "byte-identical journal" (journal o1) (journal o2);
  Alcotest.(check string) "byte-identical stable metrics" (Metrics.to_openmetrics s1)
    (Metrics.to_openmetrics s2);
  Alcotest.(check bool) "verdict-memo lookups are stable" true
    (List.exists
       (fun (s : Metrics.sample) -> s.Metrics.name = "xpiler_unit_test_memo_lookups_total")
       s1)

let test_cold_vs_warm_journal () =
  let config = traced ~seed:5 18.0 in
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
  let config = traced ~seed:3 20.0 in
  warm_refs config;
  Unit_test.reset_memo ();
  let o_cold = run ~config in
  let hits = verdict_memo_hits () in
  let o_warm = run ~config in
  Alcotest.(check bool) "warm run hit the verdict memo" true (verdict_memo_hits () > hits);
  Alcotest.(check bool) "same status" true (o_cold.Xpiler.status = o_warm.Xpiler.status);
  Alcotest.(check string) "byte-identical journal" (journal o_cold) (journal o_warm)

(* every candidate test the repairer counts is a traced interpreter run:
   each [repair] span holds at least as many [interp.runs] as the
   [repair.tests_run] it observes *)
let test_repair_tests_journaled () =
  cold ();
  let events = (run ~config:(traced ~seed:1 20.0)).Xpiler.trace in
  let spans =
    List.filter_map
      (function Event.Span { name = "repair"; ts; dur; _ } -> Some (ts, dur) | _ -> None)
      events
  and tests_run =
    List.filter_map
      (function
        | Event.Observe { name = "repair.tests_run"; v; _ } -> Some (int_of_float v) | _ -> None)
      events
  in
  Alcotest.(check bool) "the run reached repair" true (spans <> []);
  Alcotest.(check int) "one tests_run observation per repair span" (List.length spans)
    (List.length tests_run);
  List.iteri
    (fun i ((ts, dur), tests) ->
      let runs = count_total ~within:(fun t -> t >= ts && t <= ts +. dur) "interp.runs" events in
      Alcotest.(check bool)
        (Printf.sprintf "repair span %d: %d interp runs >= %d tests" i runs tests)
        true (runs >= tests))
    (List.combine spans tests_run)

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
        [ Alcotest.test_case "repeat run byte-identical journal" `Slow
            test_repeat_run_journal;
          Alcotest.test_case "cold vs warm byte-identical journal" `Slow
            test_cold_vs_warm_journal;
          Alcotest.test_case "traced verdict memo: cold vs warm journal" `Slow
            test_verdict_memo_traced_cold_vs_warm;
          Alcotest.test_case "every repair test reaches the journal" `Slow
            test_repair_tests_journaled
        ] );
      ( "oracle",
        [ Alcotest.test_case "fused check+score matches check" `Quick
            test_fused_oracle_matches_check
        ] )
    ]
