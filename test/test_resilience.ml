(* Resilient-pipeline guarantees: the escalation ladder and checkpoint
   rollback. The core invariant — the motivation for this layer — is that
   with rollback on, no pass ever commits a checker-rejected kernel to
   pipeline state, so a single unlucky pass can no longer poison the rest of
   the sequence (the Gave_up -> commit-broken path of the seed pipeline). *)

open Xpiler_machine
open Xpiler_ops
open Xpiler_core

let gemm = Registry.find_exn "gemm"
let gemm_shape = List.hd gemm.Opdef.shapes

let run ~config ~src ~dst op shape = Xpiler.transcompile ~config ~src ~dst ~op ~shape ()

let unit_passes op shape k = Unit_test.check ~trials:1 op shape k = Unit_test.Pass

(* rollback on, but with the recovery rungs below "skip" disabled so that a
   failed validation goes LLM -> SMT -> skip: the configuration that
   exercises the Gave_up path the hardest *)
let rollback_only scale seed =
  { (Config.with_seed Config.default seed) with
    Config.ladder = [ Config.Smt_repair; Config.Rollback ];
    fault_scale = scale
  }

let seed_like scale seed =
  Config.with_fault_scale (Config.with_seed Config.seed_pipeline seed) scale

(* ---- the Gave_up regression ---------------------------------------------------- *)

(* With rollback on, every kernel ever committed passed validation, so the
   final kernel always computes correctly (the unit test is part of [valid]),
   whatever the final status is. The seed pipeline committed the broken
   kernel instead; at the same fault rates it must show at least one
   miscomputing end state over the same seeds — the bug this PR fixes. *)
let test_gave_up_never_commits_broken () =
  let seeds = List.init 16 (fun i -> i) in
  let scale = 25.0 in
  let miscomputes config seed =
    let o = run ~config:(config scale seed) ~src:Platform.Cuda ~dst:Platform.Bang gemm gemm_shape in
    match o.Xpiler.kernel with
    | Some k -> not (unit_passes gemm gemm_shape k)
    | None -> true
  in
  let rollback_bad = List.filter (miscomputes rollback_only) seeds in
  let seed_bad = List.filter (miscomputes seed_like) seeds in
  Alcotest.(check (list int)) "rollback never commits a miscomputing kernel" [] rollback_bad;
  Alcotest.(check bool)
    (Printf.sprintf "seed pipeline miscomputes on %d/16 seeds (must be > 0 for the \
                     regression to bite)"
       (List.length seed_bad))
    true
    (List.length seed_bad > 0)

(* the skip rung is actually reached (the test above is vacuous otherwise) *)
let test_skip_rung_exercised () =
  let seeds = List.init 16 (fun i -> i) in
  let skipped =
    List.exists
      (fun seed ->
        let o =
          run ~config:(rollback_only 25.0 seed) ~src:Platform.Cuda ~dst:Platform.Bang gemm
            gemm_shape
        in
        o.Xpiler.skipped_passes <> []
        && List.exists
             (fun (e : Ledger.entry) -> e.Ledger.rung = Ledger.Skip)
             o.Xpiler.ledger)
      seeds
  in
  Alcotest.(check bool) "some seed rolls a pass back" true skipped

(* a Degraded outcome is reported as such: skipped passes nonempty, checks ok *)
let test_degraded_distinguishable () =
  let seeds = List.init 32 (fun i -> i) in
  let degraded =
    List.filter_map
      (fun seed ->
        let o =
          run ~config:(rollback_only 25.0 seed) ~src:Platform.Cuda ~dst:Platform.Bang gemm
            gemm_shape
        in
        if o.Xpiler.status = Xpiler.Degraded then Some o else None)
      seeds
  in
  Alcotest.(check bool) "at least one Degraded outcome over 32 seeds" true (degraded <> []);
  List.iter
    (fun (o : Xpiler.outcome) ->
      Alcotest.(check bool) "degraded => skipped passes recorded" true
        (o.Xpiler.skipped_passes <> []);
      match o.Xpiler.kernel with
      | Some k ->
        Alcotest.(check bool) "degraded kernel computes" true (unit_passes gemm gemm_shape k)
      | None -> Alcotest.fail "degraded outcome without kernel")
    degraded

(* ---- fuzz: accepted outcomes never contain checker-rejected kernels ----------- *)

let arb_case =
  QCheck.make
    ~print:(fun (seed, scale_x10, dst) ->
      Printf.sprintf "seed=%d scale=%.1f dst=%s" seed
        (float_of_int scale_x10 /. 10.0)
        (Platform.id_to_string dst))
    QCheck.Gen.(
      triple (int_range 0 100_000) (int_range 50 300)
        (oneofl [ Platform.Bang; Platform.Vnni; Platform.Cuda ]))

(* full default ladder at elevated injection rates: whatever the ladder did
   (re-prompt, repair, symbolic fallback, skip), an outcome reported as
   [Success] or [Degraded] compiles on the target and computes correctly *)
let prop_accepted_outcomes_are_valid =
  QCheck.Test.make ~name:"Degraded/Ok outcomes never contain rejected kernels" ~count:40
    arb_case (fun (seed, scale_x10, dst) ->
      let scale = float_of_int scale_x10 /. 10.0 in
      let config = Config.with_fault_scale (Config.with_seed Config.default seed) scale in
      let src = if dst = Platform.Cuda then Platform.Bang else Platform.Cuda in
      let o = run ~config ~src ~dst gemm gemm_shape in
      if not (Xpiler.accepted o.Xpiler.status) then true
      else
        match o.Xpiler.kernel with
        | None -> false
        | Some k ->
          Checker.compile (Platform.of_id dst) k = Ok () && unit_passes gemm gemm_shape k)

(* rollback invariant under fuzz: the committed kernel always computes, even
   when the final status is a (target) compile error after a skipped pass *)
let prop_rollback_commits_only_validated =
  QCheck.Test.make ~name:"rollback commits only unit-test-validated kernels" ~count:40
    arb_case (fun (seed, scale_x10, dst) ->
      let scale = float_of_int scale_x10 /. 10.0 in
      let config =
        { (Config.with_seed Config.default seed) with
          Config.ladder = Config.[ Reprompt; Smt_repair; Rollback ];
          fault_scale = scale
        }
      in
      let src = if dst = Platform.Cuda then Platform.Bang else Platform.Cuda in
      let o = run ~config ~src ~dst gemm gemm_shape in
      match o.Xpiler.kernel with Some k -> unit_passes gemm gemm_shape k | None -> false)

(* ---- ladder bookkeeping -------------------------------------------------------- *)

let test_ledger_consistency () =
  let config = Config.with_fault_scale Config.default 20.0 in
  let o = run ~config ~src:Platform.Cuda ~dst:Platform.Bang gemm gemm_shape in
  Alcotest.(check bool) "one ledger entry per attempted pass" true
    (List.length o.Xpiler.ledger
     >= List.length o.Xpiler.specs_applied + List.length o.Xpiler.skipped_passes);
  List.iter
    (fun (e : Ledger.entry) ->
      Alcotest.(check bool) "attempts positive unless inapplicable" true
        (e.Ledger.attempts >= 1
         || match e.Ledger.result with Ledger.Not_applicable _ -> true | _ -> false);
      Alcotest.(check bool) "time charged is nonnegative" true (e.Ledger.time_charged >= 0.0);
      match e.Ledger.result with
      | Ledger.Applied -> Alcotest.(check bool) "clean apply = rung 0" true (e.Ledger.rung = Ledger.Validate)
      | Ledger.Applied_reprompt ->
        Alcotest.(check bool) "reprompt result implies reprompt rung" true
          (Ledger.rung_index e.Ledger.rung >= Ledger.rung_index Ledger.Reprompt)
      | Ledger.Repaired ->
        Alcotest.(check bool) "repair implies smt rung" true
          (Ledger.rung_index e.Ledger.rung >= Ledger.rung_index Ledger.Smt)
      | Ledger.Symbolic_applied ->
        Alcotest.(check bool) "symbolic implies symbolic rung" true
          (Ledger.rung_index e.Ledger.rung >= Ledger.rung_index Ledger.Symbolic)
      | Ledger.Skipped ->
        Alcotest.(check bool) "skip implies skip rung" true (e.Ledger.rung = Ledger.Skip)
      | Ledger.Committed_broken | Ledger.Not_applicable _ -> ())
    o.Xpiler.ledger

let test_ledger_report_renders () =
  let config = Config.with_fault_scale Config.default 20.0 in
  let o = run ~config ~src:Platform.Cuda ~dst:Platform.Bang gemm gemm_shape in
  let text = Report.render (Ledger.report o.Xpiler.ledger) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "title present" true (contains text "Pass attempt ledger");
  Alcotest.(check bool) "rung column present" true (contains text "rung")

(* escalation is observable on the trace: the ladder emits per-rung counters
   and a pass.ledger instant per attempted pass *)
let test_trace_surfaces_escalation () =
  let config =
    Config.with_trace
      (Config.with_fault_scale Config.default 20.0)
      Xpiler_obs.Tracer.Detail
  in
  let o = run ~config ~src:Platform.Cuda ~dst:Platform.Bang gemm gemm_shape in
  let instants =
    List.filter
      (fun e -> match e with Xpiler_obs.Event.Instant { name = "pass.ledger"; _ } -> true | _ -> false)
      o.Xpiler.trace
  in
  Alcotest.(check int) "one pass.ledger instant per ledger entry"
    (List.length o.Xpiler.ledger) (List.length instants);
  let reprompts =
    List.exists
      (fun (e : Ledger.entry) -> Ledger.rung_index e.Ledger.rung >= 1)
      o.Xpiler.ledger
  in
  let counted =
    List.exists
      (fun e ->
        match e with Xpiler_obs.Event.Count { name = "escalate.reprompt"; _ } -> true | _ -> false)
      o.Xpiler.trace
  in
  Alcotest.(check bool) "escalate.* counter mirrors the ledger" reprompts counted

(* ---- config derivation --------------------------------------------------------- *)

let test_max_escalation_mapping () =
  let open Config in
  let ladder t n = (with_max_escalation t n).ladder in
  let name = function
    | Reprompt -> "reprompt"
    | Self_debug -> "self-debug"
    | Smt_repair -> "smt-repair"
    | Symbolic -> "symbolic"
    | Rollback -> "rollback"
  in
  let rungs = Alcotest.(list (of_pp (fun fmt r -> Format.pp_print_string fmt (name r)))) in
  Alcotest.check rungs "rung 0 disables everything" [] (ladder default 0);
  Alcotest.check rungs "rung 1 keeps re-prompting" [ Reprompt ] (ladder default 1);
  Alcotest.check rungs "rung 2 keeps smt, drops symbolic+rollback" [ Reprompt; Smt_repair ]
    (ladder default 2);
  Alcotest.check rungs "rung 4 is the full ladder" default.ladder (ladder default 4);
  (* never re-enables what the config already left out *)
  Alcotest.check rungs "without_smt stays without smt" [] (ladder without_smt 4);
  Alcotest.check rungs "seed pipeline gains no rung" [ Smt_repair ] (ladder seed_pipeline 4);
  Alcotest.check rungs "self-debug shares smt's level" [ Self_debug ]
    (ladder without_smt_self_debug 2);
  Alcotest.check rungs "self-debug is gone below it" [] (ladder without_smt_self_debug 1)

(* ---- determinism --------------------------------------------------------------- *)

(* a tuned run under faults, twice in one session: no search state
   outlives its translation, so the second run repeats the first exactly,
   tuning included (status, ledger, target text, modelled time, journal) *)
let test_tuned_repeat_under_faults () =
  let config =
    Config.with_trace
      (Config.with_fault_scale (Config.with_seed Config.tuned 3) 15.0)
      Xpiler_obs.Tracer.Detail
  in
  let first = run ~config ~src:Platform.Cuda ~dst:Platform.Bang gemm gemm_shape in
  let second = run ~config ~src:Platform.Cuda ~dst:Platform.Bang gemm gemm_shape in
  Alcotest.(check bool) "the tuner ran" true
    (List.exists
       (function
         | Xpiler_obs.Event.Count { name = "mcts.simulations"; _ } -> true | _ -> false)
       first.Xpiler.trace);
  Alcotest.(check bool) "same status" true (first.Xpiler.status = second.Xpiler.status);
  Alcotest.(check bool) "byte-identical target text" true
    (first.Xpiler.target_text = second.Xpiler.target_text);
  Alcotest.(check bool) "same ledger" true (first.Xpiler.ledger = second.Xpiler.ledger);
  Alcotest.(check (float 0.0)) "same modelled time"
    (Xpiler_util.Vclock.elapsed first.Xpiler.clock)
    (Xpiler_util.Vclock.elapsed second.Xpiler.clock);
  Alcotest.(check bool) "same journal" true (first.Xpiler.trace = second.Xpiler.trace)

let test_repeat_determinism () =
  let config = Config.with_fault_scale Config.default 18.0 in
  let o1 = run ~config ~src:Platform.Cuda ~dst:Platform.Bang gemm gemm_shape in
  let o2 = run ~config ~src:Platform.Cuda ~dst:Platform.Bang gemm gemm_shape in
  Alcotest.(check bool) "same text" true (o1.Xpiler.target_text = o2.Xpiler.target_text);
  Alcotest.(check bool) "same ledger" true (o1.Xpiler.ledger = o2.Xpiler.ledger);
  Alcotest.(check bool) "same skipped" true (o1.Xpiler.skipped_passes = o2.Xpiler.skipped_passes)

let () =
  Alcotest.run "resilience"
    [ ( "rollback",
        [ Alcotest.test_case "Gave_up never commits broken" `Slow test_gave_up_never_commits_broken;
          Alcotest.test_case "skip rung exercised" `Slow test_skip_rung_exercised;
          Alcotest.test_case "degraded distinguishable" `Slow test_degraded_distinguishable
        ] );
      ( "fuzz",
        [ QCheck_alcotest.to_alcotest prop_accepted_outcomes_are_valid;
          QCheck_alcotest.to_alcotest prop_rollback_commits_only_validated
        ] );
      ( "ledger",
        [ Alcotest.test_case "consistency" `Quick test_ledger_consistency;
          Alcotest.test_case "report renders" `Quick test_ledger_report_renders;
          Alcotest.test_case "trace surfaces escalation" `Quick test_trace_surfaces_escalation
        ] );
      ("config", [ Alcotest.test_case "max-escalation mapping" `Quick test_max_escalation_mapping ]);
      ( "determinism",
        [ Alcotest.test_case "tuned repeat run under faults" `Slow
            test_tuned_repeat_under_faults;
          Alcotest.test_case "repeat determinism" `Quick test_repeat_determinism
        ] )
    ]
