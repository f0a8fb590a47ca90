(* Bechamel micro-benchmarks: the latency of every pipeline stage the
   compile-time model charges for — one Test.make per experiment family. *)

open Bechamel
open Toolkit
open Xpiler_machine
open Xpiler_ops

let gemm = Registry.find_exn "gemm"
let gemm_shape = List.hd gemm.Opdef.shapes
let serial = gemm.Opdef.serial gemm_shape
let cuda_text = Idiom.source_text Platform.Cuda gemm gemm_shape
let bang_kernel = Idiom.source Platform.Bang gemm gemm_shape

let test_parse =
  Test.make ~name:"table6:parse-cuda-source" (Staged.stage (fun () ->
      ignore (Xpiler_lang.Parser.parse Xpiler_lang.Dialect.cuda cuda_text)))

let test_checker =
  Test.make ~name:"table6:platform-checker" (Staged.stage (fun () ->
      ignore (Checker.compile Platform.bang bang_kernel)))

let test_interp =
  Test.make ~name:"table2:unit-test-oracle" (Staged.stage (fun () ->
      ignore (Unit_test.check ~trials:1 gemm gemm_shape serial)))

(* through [Pass.apply], so the time includes the [Stmt.simplify] every
   tuner candidate pays after its pass *)
let test_pass =
  Test.make ~name:"table7:loop-split-pass" (Staged.stage (fun () ->
      ignore
        (Xpiler_passes.Pass.apply ~platform:Platform.cuda
           (Xpiler_passes.Pass.Loop_split { var = "i"; factor = 4 })
           serial)))

let test_solver =
  Test.make ~name:"table3:smt-lite-solver" (Staged.stage (fun () ->
      ignore
        (Xpiler_smt.Solver.solve
           { vars = [ ("x", Xpiler_smt.Solver.Range { lo = 1; hi = 512; stride = 1 }) ];
             constraints =
               Xpiler_ir.Expr.
                 [ Binop (Eq, Binop (Mod, Var "x", Int 64), Int 0);
                   Binop (Gt, Var "x", Int 128) ]
           })))

let test_costmodel =
  Test.make ~name:"fig7:cost-model" (Staged.stage (fun () ->
      ignore (Costmodel.estimate Platform.bang bang_kernel ~shapes:[])))

(* one tuner state: every candidate built, walked once by the cost model,
   and the survivors checked *)
let cuda_kernel = Idiom.source Platform.Cuda gemm gemm_shape

let test_intra =
  Test.make ~name:"fig7:intra-tune-state" (Staged.stage (fun () ->
      ignore (Xpiler_tuning.Intra.tune ~platform:Platform.cuda cuda_kernel)))

let test_bm25 =
  Test.make ~name:"fig8:bm25-retrieval" (Staged.stage (fun () ->
      ignore (Xpiler_manual.Corpus.search Platform.Bang "matmul gemm" 3)))

let all_tests =
  [ test_parse; test_checker; test_interp; test_pass; test_solver; test_costmodel; test_intra;
    test_bm25 ]

let run () =
  Printf.printf "\n=== Bechamel micro-benchmarks (pipeline-stage latencies) ===\n%!";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.2) ~kde:(Some 100) () in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances (Test.make_grouped ~name:"g" ~fmt:"%s %s" [ test ])
      in
      let ols =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ t ] -> Printf.printf "  %-32s %12.1f ns/run\n%!" name t
          | _ -> Printf.printf "  %-32s (no estimate)\n%!" name)
        ols)
    all_tests
