(* Session guarantees: a pool task starts from a fresh session and sees none
   of its caller's cached entries, and tuned translations run on the domain
   pool give the same results and metrics at any job count. Runs under
   `dune runtest`. *)

open Xpiler_machine
open Xpiler_ops
open Xpiler_core

let run ?config ~src ~dst op shape =
  Xpiler.transcompile ?config ~src ~dst ~op ~shape ()

(* ---- sessions: a pool task starts cold ------------------------------------

   Every translation cache is a session value, and every pool task runs in a
   fresh session: whatever the caller learned is invisible to the task, at
   any job count, and survives the map. *)

module Pool = Xpiler_util.Pool
module Rng = Xpiler_util.Rng
module Problem = Xpiler_smt.Problem
module Memo = Xpiler_smt.Memo
module Tracer = Xpiler_obs.Tracer
module Trace = Xpiler_obs.Trace

let with_four_domains f =
  let saved = Pool.get_max_domains () in
  Pool.set_max_domains 4;
  Fun.protect ~finally:(fun () -> Pool.set_max_domains saved) f

module Metrics = Xpiler_obs.Metrics

let reference_runs = Test_support.Tcommon.reference_runs

(* the pipeline's reference-run and verdict-memo counters; outside the map
   nothing else runs, so their deltas over a map are the tasks' own *)
let verdict_lookups result =
  Metrics.value
    (Metrics.counter ~labels:[ ("result", result) ] "xpiler_unit_test_memo_lookups_total")

let test_pool_tasks_start_cold () =
  with_four_domains @@ fun () ->
  let problem =
    { Problem.vars = [ ("x", Problem.Range { lo = 0; hi = 9; stride = 1 }) ];
      constraints = [ Xpiler_ir.Expr.Var "x" ]
    }
  in
  Memo.store ~max_steps:100 problem
    { Memo.outcome = Problem.Unsat; stats = { Problem.steps = 5; evals = 9 } };
  let op = Registry.find_exn "relu" in
  let shape = List.hd op.Opdef.shapes in
  let kernel = op.Opdef.serial shape in
  let check () = Unit_test.check ~trials:1 op shape kernel in
  ignore (check ());
  let caller_view () =
    let refs = reference_runs () and hits = verdict_lookups "hit" in
    let verdict = check () in
    ( Memo.find ~max_steps:100 problem <> None,
      verdict = Unit_test.Pass && reference_runs () = refs && verdict_lookups "hit" = hits + 1 )
  in
  Trace.with_tracer (Tracer.create ()) @@ fun () ->
  List.iter
    (fun jobs ->
      let refs = reference_runs ()
      and hits = verdict_lookups "hit"
      and misses = verdict_lookups "miss" in
      let tasks =
        Pool.map ~jobs
          (fun _ ->
            (* the second check is served by the task's own entries *)
            let first = check () in
            let second = check () in
            (Memo.size () = 0, first = second, Trace.enabled ()))
          (List.init 4 Fun.id)
      in
      let each what f =
        Alcotest.(check bool) (Printf.sprintf "jobs=%d: %s" jobs what) true (List.for_all f tasks)
      in
      each "solver memo empty" (fun (m, _, _) -> m);
      each "same verdict cold and warm" (fun (_, v, _) -> v);
      each "no ambient tracer" (fun (_, _, tr) -> not tr);
      let counts what base now =
        Alcotest.(check int) (Printf.sprintf "jobs=%d: %s" jobs what) 4 (now - base)
      in
      counts "one reference run per task" refs (reference_runs ());
      counts "one verdict-memo miss per task" misses (verdict_lookups "miss");
      counts "one verdict-memo hit per task" hits (verdict_lookups "hit");
      Alcotest.(check bool) (Printf.sprintf "jobs=%d: caller's entries survive" jobs) true
        (caller_view () = (true, true)))
    [ 1; 4 ]

(* ---- parallel translations: jobs=1 vs jobs=4 ------------------------------

   Whole translations are the only work that runs in parallel. As in the
   bench harness, each operator is one pool task that translates its shapes
   in order. Every task runs in a fresh session, so results and the metrics
   snapshot must not depend on the job count. *)

module Json = Xpiler_obs.Json

let translation_groups =
  List.map
    (fun name ->
      let op = Registry.find_exn name in
      List.map (fun shape -> (op, shape)) (Xpiler_util.Listx.take 3 op.Opdef.shapes))
    [ "gemm"; "relu"; "add" ]

let translate_groups ~jobs =
  Metrics.reset ();
  let outcomes =
    Pool.map ~jobs
      (List.map (fun (op, shape) ->
           let o = run ~config:Config.tuned ~src:Platform.Cuda ~dst:Platform.Bang op shape in
           (o.Xpiler.status, o.Xpiler.target_text, o.Xpiler.throughput)))
      translation_groups
  in
  (outcomes, Metrics.snapshot ())

let test_parallel_translations_deterministic () =
  with_four_domains @@ fun () ->
  let o1, m1 = translate_groups ~jobs:1 in
  let o4, m4 = translate_groups ~jobs:4 in
  Alcotest.(check bool) "same status, target text and throughput" true (o1 = o4);
  Alcotest.(check bool) "tuning ran" true
    (List.exists (List.exists (fun (_, _, t) -> t <> None)) o1);
  let json m = Json.to_string (Metrics.to_json m) in
  Alcotest.(check string) "same metrics snapshot" (json m1) (json m4);
  Alcotest.(check bool) "compile cache lookups in the snapshot" true
    (List.exists
       (fun (s : Metrics.sample) ->
         s.Metrics.name = "xpiler_compile_cache_lookups_total"
         && s.Metrics.value <> Metrics.Vcounter 0)
       m1)

let () =
  Alcotest.run "sessions"
    [ ( "sessions",
        [ Alcotest.test_case "pool tasks start cold" `Quick test_pool_tasks_start_cold ] );
      ( "determinism",
        [ Alcotest.test_case "parallel translations jobs=1 = jobs=4" `Slow
            test_parallel_translations_deterministic
        ] )
    ]
