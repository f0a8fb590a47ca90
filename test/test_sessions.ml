(* Session guarantees: a pool task starts from a fresh session and sees none
   of its caller's cached entries, and tuned translations run on the domain
   pool give the same results and stable metrics at any job count. Runs under
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
module Kgen = Test_support.Kgen
module Problem = Xpiler_smt.Problem
module Memo = Xpiler_smt.Memo
module Tracer = Xpiler_obs.Tracer
module Trace = Xpiler_obs.Trace

let with_four_domains f =
  let saved = Pool.get_max_domains () in
  Pool.set_max_domains 4;
  Fun.protect ~finally:(fun () -> Pool.set_max_domains saved) f

let test_pool_tasks_start_cold () =
  with_four_domains @@ fun () ->
  let kernel = Kgen.kernel (Rng.create 103) in
  let problem =
    { Problem.vars = [ ("x", Problem.Range { lo = 0; hi = 9; stride = 1 }) ];
      constraints = [ Xpiler_ir.Expr.Var "x" ]
    }
  in
  Memo.store ~mode:Memo.Solve ~max_steps:100 problem
    { Memo.payload = Memo.Outcome Problem.Unsat; stats = { Problem.steps = 5; evals = 9 } };
  let compiled = Compile.cached kernel in
  let caller_view () =
    ( Memo.find ~mode:Memo.Solve ~max_steps:100 problem <> None,
      Compile.cached kernel == compiled )
  in
  Trace.with_tracer (Tracer.create ()) @@ fun () ->
  List.iter
    (fun jobs ->
      let tasks =
        Pool.map ~jobs
          (fun _ ->
            let c = Compile.cached kernel in
            (Memo.size () = 0, c != compiled && Compile.cached kernel == c, Trace.enabled ()))
          (List.init 4 Fun.id)
      in
      let each what f =
        Alcotest.(check bool) (Printf.sprintf "jobs=%d: %s" jobs what) true (List.for_all f tasks)
      in
      each "solver memo empty" (fun (m, _, _) -> m);
      each "compile cache empty, then its own" (fun (_, c, _) -> c);
      each "no ambient tracer" (fun (_, _, tr) -> not tr);
      Alcotest.(check bool) (Printf.sprintf "jobs=%d: caller's entries survive" jobs) true
        (caller_view () = (true, true)))
    [ 1; 4 ]

(* ---- parallel translations: jobs=1 vs jobs=4 ------------------------------

   Whole translations are the only work that runs in parallel. As in the
   bench harness, each operator is one pool task that translates its shapes
   in order. Every task runs in a fresh session, so results and the stable
   metrics snapshot must not depend on the job count. *)

module Metrics = Xpiler_obs.Metrics
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
  (outcomes, Metrics.snapshot ~stable_only:true ())

let test_parallel_translations_deterministic () =
  with_four_domains @@ fun () ->
  let o1, m1 = translate_groups ~jobs:1 in
  let o4, m4 = translate_groups ~jobs:4 in
  Alcotest.(check bool) "same status, target text and throughput" true (o1 = o4);
  Alcotest.(check bool) "tuning ran" true
    (List.exists (List.exists (fun (_, _, t) -> t <> None)) o1);
  let json m = Json.to_string (Metrics.to_json m) in
  Alcotest.(check string) "same stable metrics snapshot" (json m1) (json m4);
  Alcotest.(check bool) "compile cache lookups are stable" true
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
