(* Repair/SMT hot-path guarantees: the overhauled stack — incremental
   watched-constraint solver, session-local solver + verdict memos —
   changes wall-clock time, never outcomes or journals. The contracts
   asserted here:

   - repeat-run identity: two same-seed runs from fresh sessions produce
     byte-identical trace journals and metrics snapshots;
   - cold vs warm: re-running a traced translation against warm memos yields
     a byte-identical journal (solver-memo entries carry their original
     search receipts, and every unit-test trial is metered from its memo
     entry, on a hit as on a miss);
   - the serial reference run is not metered, so a journal does not depend
     on the reference cache either;
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
module Session = Xpiler_util.Session

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

let test_repeat_run_journal () =
  let mk () =
    Session.fresh @@ fun () ->
    Metrics.reset ();
    let o = run ~config:(traced 20.0) in
    (o, Metrics.snapshot ())
  in
  let o1, s1 = mk () in
  let o2, s2 = mk () in
  Alcotest.(check bool) "repair actually ran" true
    (count_total "repair.candidates" o1.Xpiler.trace > 0);
  Alcotest.(check bool) "same status" true (o1.Xpiler.status = o2.Xpiler.status);
  Alcotest.(check bool) "byte-identical target text" true
    (o1.Xpiler.target_text = o2.Xpiler.target_text);
  Alcotest.(check string) "byte-identical journal" (journal o1) (journal o2);
  Alcotest.(check string) "byte-identical metrics" (Metrics.to_openmetrics s1)
    (Metrics.to_openmetrics s2);
  Alcotest.(check bool) "verdict-memo lookups in the snapshot" true
    (List.exists
       (fun (s : Metrics.sample) -> s.Metrics.name = "xpiler_unit_test_memo_lookups_total")
       s1)

let test_cold_vs_warm_journal () =
  let config = traced ~seed:5 18.0 in
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
      n + Metrics.value (Metrics.counter ~labels:[ ("result", "hit") ] name))
    0
    [ "xpiler_unit_test_memo_lookups_total"; "xpiler_repair_verdict_memo_lookups_total" ]

(* the verdict memo stays on under tracing: a warm run meters the memo
   entries' counts instead of re-running kernels, and its journal is the
   cold run's byte for byte *)
let test_verdict_memo_traced_cold_vs_warm () =
  let config = traced ~seed:3 20.0 in
  Unit_test.reset_memo ();
  let o_cold = run ~config in
  let hits = verdict_memo_hits () in
  let o_warm = run ~config in
  Alcotest.(check bool) "warm run hit the verdict memo" true (verdict_memo_hits () > hits);
  Alcotest.(check bool) "same status" true (o_cold.Xpiler.status = o_warm.Xpiler.status);
  Alcotest.(check string) "byte-identical journal" (journal o_cold) (journal o_warm)

let reference_runs () =
  Metrics.value (Metrics.counter "xpiler_unit_test_reference_runs_total")

(* the serial reference run is not metered: a traced translation journals
   the same events whether Unit_test's reference cache is cold or warm *)
let test_reference_cache_journal () =
  Session.fresh @@ fun () ->
  let config = traced ~seed:2 20.0 in
  let refs = reference_runs () in
  let o_cold = run ~config in
  Alcotest.(check bool) "cold run computed its references" true (reference_runs () > refs);
  cold ();
  let refs = reference_runs () in
  let o_warm = run ~config in
  Alcotest.(check int) "warm run computed none" refs (reference_runs ());
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

(* the verdict and the mismatch score come from one trial's comparison: a
   trial passes exactly when it scores 0 *)
let test_fused_oracle_matches_check () =
  let clean = Idiom.source Platform.Bang gemm gemm_shape in
  Alcotest.(check bool) "clean kernel: pass with zero mismatches" true
    (Unit_test.check ~trials:1 gemm gemm_shape clean = Unit_test.Pass
    && Unit_test.mismatch_score gemm gemm_shape clean = 0);
  let exercised = ref 0 in
  List.iter
    (fun seed ->
      match Fault.inject_bound (rng seed) (Idiom.source Platform.Cuda gemm gemm_shape) with
      | None -> ()
      | Some (broken, _) ->
        incr exercised;
        let score = Unit_test.mismatch_score gemm gemm_shape broken in
        let plain = Unit_test.check ~trials:1 gemm gemm_shape broken in
        Alcotest.(check bool)
          (Printf.sprintf "pass exactly when the score is 0 (seed %d)" seed)
          (plain = Unit_test.Pass) (score = 0))
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
          Alcotest.test_case "reference cache: cold vs warm journal" `Slow
            test_reference_cache_journal;
          Alcotest.test_case "every repair test reaches the journal" `Slow
            test_repair_tests_journaled
        ] );
      ( "oracle",
        [ Alcotest.test_case "fused check+score matches check" `Quick
            test_fused_oracle_matches_check
        ] )
    ]
