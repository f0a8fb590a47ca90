open Xpiler_ir
open Xpiler_machine
open Xpiler_ops
open Xpiler_neural
open Xpiler_repair

let rng seed = Xpiler_util.Rng.create seed

let gemm = Registry.find_exn "gemm"
let gemm_shape = List.hd gemm.Opdef.shapes
let bang = Platform.bang

let bang_gemm () = Idiom.source Platform.Bang gemm gemm_shape
let cuda_gemm () = Idiom.source Platform.Cuda gemm gemm_shape

(* ---- fault injection ------------------------------------------------------- *)

let test_fault_bound_breaks () =
  let k = cuda_gemm () in
  match Fault.inject_bound (rng 5) k with
  | None -> Alcotest.fail "no bound site"
  | Some (k', f) ->
    Alcotest.(check bool) "detail severity" true (f.severity = Fault.Detail);
    Alcotest.(check bool) "unit test fails or kernel unchanged semantics" true
      (Unit_test.check ~trials:1 gemm gemm_shape k' <> Unit_test.Pass
      || Kernel.equal k k' = false)

let test_fault_param_breaks () =
  let k = bang_gemm () in
  match Fault.inject_param (rng 7) k with
  | None -> Alcotest.fail "no param site"
  | Some (k', _) ->
    Alcotest.(check bool) "fails unit test" true
      (Unit_test.check ~trials:1 gemm gemm_shape k' <> Unit_test.Pass)

let test_fault_structural_memory_compile () =
  let k = bang_gemm () in
  (* force the wrong-scope variant by trying seeds until one flips a scope *)
  let rec find seed =
    if seed > 40 then Alcotest.fail "no memory fault found"
    else
      match Fault.inject (rng seed) ~target:bang Fault.Structural Fault.Memory k with
      | Some (k', f) when f.description = "placed a buffer in the wrong memory space" ->
        (k', f)
      | _ -> find (seed + 1)
  in
  let k', _ = find 0 in
  match Checker.compile bang k' with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "wrong scope must fail compilation"

let test_fault_foreign_axis_compile () =
  let k = bang_gemm () in
  match Fault.inject (rng 3) ~target:bang Fault.Structural Fault.Parallelism k with
  | None -> Alcotest.fail "no parallel site"
  | Some (k', _) -> (
    match Checker.compile bang k' with
    | Error es ->
      Alcotest.(check bool) "parallelism category" true
        (List.exists (fun (e : Checker.error) -> e.category = `Parallelism) es)
    | Ok () -> Alcotest.fail "foreign builtin must fail compilation")

(* ---- localization ------------------------------------------------------------ *)

let test_localize_finds_failing_buffer () =
  let k = bang_gemm () in
  match Fault.inject_param (rng 11) k with
  | None -> Alcotest.fail "no param site"
  | Some (k', _) ->
    let report = Localize.localize ~op:gemm ~shape:gemm_shape k' in
    Alcotest.(check bool) "C diverges" true (List.mem "C" report.failing_buffers);
    Alcotest.(check bool) "sites found" true (report.sites <> [])

let test_localize_clean_kernel () =
  let report = Localize.localize ~op:gemm ~shape:gemm_shape (bang_gemm ()) in
  Alcotest.(check (list string)) "no failing buffers" [] report.failing_buffers;
  Alcotest.(check (option string)) "no runtime error" None report.runtime_error

let test_localize_flags_dynamic_control_flow () =
  let da = Registry.find_exn "deformable_attention" in
  let shape = List.hd da.Opdef.shapes in
  let k = da.Opdef.serial shape in
  (* corrupt a store index inside the data-dependent corner guard *)
  let corrupted =
    Kernel.map_body
      (Stmt.map_block (fun s ->
           match s with
           | Stmt.Store ({ buf = "out"; index; _ } as r) ->
             Some (Stmt.Store { r with index = Expr.Binop (Expr.Add, index, Expr.Int 1) })
           | s -> Some s))
      k
  in
  let report = Localize.localize ~op:da ~shape corrupted in
  Alcotest.(check bool) "flagged unrepairable" true (report.unrepairable <> [])

(* the localizer reads the trial the unit test has just run from the
   verdict memo, counted in the repair loop's lookups, and reports what a cold
   localization reports. A binding error is never memoized and a raising
   reference never reaches the memo *)
let test_localize_reads_oracle_trial () =
  let shift_stores buf by k =
    Kernel.map_body
      (Stmt.map_block (fun s ->
           match s with
           | Stmt.Store ({ buf = b; index; _ } as r) when b = buf ->
             Some (Stmt.Store { r with index = Expr.Binop (Expr.Add, index, Expr.Int by) })
           | s -> Some s))
      k
  in
  let wrong =
    match Fault.inject_param (rng 11) (bang_gemm ()) with
    | Some (k, _) -> k
    | None -> Alcotest.fail "no param site"
  in
  let raising = Test_support.Tcommon.oob_op () in
  let cases =
    [ ("wrong output", gemm, gemm_shape, wrong, true);
      ("out of bounds", gemm, gemm_shape, shift_stores "C" 1_000_000 (gemm.Opdef.serial gemm_shape),
       true);
      ("raising reference", raising, [ ("n", 64) ], raising.Opdef.serial [ ("n", 64) ], false) ]
  in
  let localize op shape k =
    match Localize.localize ~op ~shape k with
    | r -> Ok r
    | exception Unit_test.Reference_failed m -> Error m
  in
  List.iter
    (fun (label, op, shape, k, memoized) ->
      Alcotest.(check bool) (label ^ ": fails its unit test") true
        (Unit_test.check ~trials:1 op shape k <> Unit_test.Pass);
      let hits = Xpiler_obs.Metrics.value Localize.lookups.hit in
      let warm = localize op shape k in
      Alcotest.(check int) (label ^ ": verdict-memo hits")
        (if memoized then 1 else 0)
        (Xpiler_obs.Metrics.value Localize.lookups.hit - hits);
      Unit_test.reset_memo ();
      let cold = localize op shape k in
      Alcotest.(check bool) (label ^ ": warm report = cold report") true (warm = cold);
      match (label, warm) with
      | "wrong output", Ok r ->
        Alcotest.(check (option string)) "wrong output: no runtime error" None r.runtime_error;
        Alcotest.(check (list string)) "wrong output: C fails" [ "C" ] r.failing_buffers
      | "out of bounds", Ok r ->
        Alcotest.(check bool) "out of bounds: runtime error" true (r.runtime_error <> None);
        Alcotest.(check (list string)) "out of bounds: every output fails" [ "C" ]
          r.failing_buffers
      | "raising reference", Error _ -> ()
      | _ -> Alcotest.failf "%s: unexpected localization outcome" label)
    cases

(* ---- repair -------------------------------------------------------------------- *)

let repairable_fault ?(kernel = bang_gemm) inject seed =
  let k = kernel () in
  match inject (rng seed) k with
  | None -> Alcotest.fail "no site"
  | Some (k', _) ->
    if Unit_test.check ~trials:1 gemm gemm_shape k' = Unit_test.Pass then None else Some k'

let test_repair_bound () =
  match repairable_fault ~kernel:cuda_gemm Fault.inject_bound 21 with
  | None -> Alcotest.fail "fault did not break the kernel"
  | Some broken -> (
    match Repairer.repair ~platform:Platform.cuda ~op:gemm ~shape:gemm_shape broken with
    | Repairer.Repaired { kernel; _ } ->
      Alcotest.(check bool) "repaired kernel passes" true
        (Unit_test.check gemm gemm_shape kernel = Unit_test.Pass)
    | Repairer.Gave_up { reason; _ } -> Alcotest.fail ("gave up: " ^ reason))

let test_repair_param () =
  match repairable_fault Fault.inject_param 33 with
  | None -> Alcotest.fail "fault did not break the kernel"
  | Some broken -> (
    match Repairer.repair ~platform:bang ~op:gemm ~shape:gemm_shape broken with
    | Repairer.Repaired { kernel; _ } ->
      Alcotest.(check bool) "repaired kernel passes" true
        (Unit_test.check gemm gemm_shape kernel = Unit_test.Pass)
    | Repairer.Gave_up { reason; _ } -> Alcotest.fail ("gave up: " ^ reason))

let test_repair_index_on_elementwise () =
  let op = Registry.find_exn "add" in
  let shape = List.hd op.Opdef.shapes in
  let k = op.Opdef.serial shape in
  match Fault.inject_index (rng 9) k with
  | None -> Alcotest.fail "no store site"
  | Some (broken, _) -> (
    match
      Repairer.repair ~platform:Platform.vnni ~op ~shape broken
    with
    | Repairer.Repaired { kernel; _ } ->
      Alcotest.(check bool) "repaired" true (Unit_test.check op shape kernel = Unit_test.Pass)
    | Repairer.Gave_up { reason; _ } -> Alcotest.fail ("gave up: " ^ reason))

(* the bang gemm's vec_fill is a vector intrinsic: every length candidate
   must keep the platform's vector alignment *)
let test_candidates_respect_alignment () =
  let k = bang_gemm () in
  let site =
    match
      List.find_opt
        (fun (_, s) ->
          match s with Stmt.Intrinsic { op = Intrin.Vec_fill; _ } -> true | _ -> false)
        (Site.walk k)
    with
    | Some (site, _) -> site
    | None -> Alcotest.fail "no vec_fill site"
  in
  Alcotest.(check string) "vec_fill site" "param#3 (=128)" (Site.to_string site);
  let values = Repairer.candidate_values ~platform:bang k site in
  Alcotest.(check bool) "non-empty" true (values <> []);
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "%d is a positive multiple of %d" v bang.Platform.vector_align)
        true
        (v > 0 && v mod bang.Platform.vector_align = 0))
    values

(* ---- annotation / prompts -------------------------------------------------------- *)

let test_annotate_gemm () =
  let k = gemm.Opdef.serial gemm_shape in
  let ops = Annotate.operations_in k in
  (match ops with
  | [ Annotate.Op_matmul { m = 16; k = 32; n = 64 } ] -> ()
  | _ ->
    Alcotest.fail
      ("expected one matmul, got: "
      ^ String.concat ", " (List.map Annotate.operation_name ops)));
  let annotated = Annotate.annotate ~target:Platform.Bang k in
  Alcotest.(check bool) "is annotated" true (Annotate.is_annotated annotated);
  (* the reference must mention the BANG mlp intrinsic *)
  let has_mlp = ref false in
  Stmt.iter
    (fun s ->
      match s with
      | Stmt.Annot { key = "reference"; value } ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        if contains value "__bang_mlp" then has_mlp := true
      | _ -> ())
    annotated.Kernel.body;
  Alcotest.(check bool) "reference mentions __bang_mlp" true !has_mlp;
  (* idempotent *)
  Alcotest.(check bool) "idempotent" true
    (Kernel.equal annotated (Annotate.annotate ~target:Platform.Bang annotated))

let test_annotate_softmax () =
  let op = Registry.find_exn "softmax" in
  let k = op.Opdef.serial (List.hd op.Opdef.shapes) in
  let ops = Annotate.operations_in k in
  let names = List.map Annotate.operation_name ops in
  Alcotest.(check bool) "finds reduce_max" true (List.mem "reduce_max" names);
  Alcotest.(check bool) "finds reduce_sum" true (List.mem "reduce_sum" names);
  Alcotest.(check bool) "finds exp" true (List.mem "elementwise_exp" names)

let test_meta_prompt () =
  let k = gemm.Opdef.serial gemm_shape in
  let mp = Meta_prompt.build ~target:Platform.Bang Xpiler_passes.Pass.Tensorize k in
  Alcotest.(check bool) "has examples" true (mp.Meta_prompt.examples <> []);
  let rendered = Meta_prompt.render mp in
  Alcotest.(check bool) "non-trivial" true (String.length rendered > 100)

(* ---- the LLM oracle ------------------------------------------------------------------ *)

let test_llm_deterministic () =
  let t1 = Llm.create ~seed:99 () and t2 = Llm.create ~seed:99 () in
  let run t =
    Llm.translate_program t ~profile:Profile.gpt4_few_shot ~src:Platform.Cuda
      ~dst:Platform.Bang ~op:gemm ~shape:gemm_shape
  in
  match (run t1, run t2) with
  | Llm.Garbage, Llm.Garbage -> ()
  | Llm.Translated (k1, f1), Llm.Translated (k2, f2) ->
    Alcotest.(check bool) "same kernel" true (Kernel.equal k1 k2);
    Alcotest.(check int) "same faults" (List.length f1) (List.length f2)
  | _ -> Alcotest.fail "nondeterministic oracle"

let test_llm_zero_shot_worse_than_few_shot () =
  (* zero-shot must fail compilation more often than few-shot *)
  let count_compile profile =
    let compiles = ref 0 in
    for seed = 0 to 59 do
      let t = Llm.create ~seed () in
      match
        Llm.translate_program t ~profile ~src:Platform.Cuda ~dst:Platform.Bang ~op:gemm
          ~shape:gemm_shape
      with
      | Llm.Garbage -> ()
      | Llm.Translated (k, _) -> if Checker.compile bang k = Ok () then incr compiles
    done;
    !compiles
  in
  let zero = count_compile Profile.gpt4_zero_shot in
  let few = count_compile Profile.gpt4_few_shot in
  Alcotest.(check bool)
    (Printf.sprintf "zero-shot compiles (%d) < few-shot compiles (%d)" zero few)
    true (zero < few)

let test_llm_pass_level_mostly_correct () =
  let ok = ref 0 in
  for seed = 0 to 29 do
    let t = Llm.create ~seed () in
    let k = gemm.Opdef.serial gemm_shape in
    match
      Llm.apply_pass t
        ~profile:(Profile.pass_level ~annotated:true)
        ~target:bang
        (Xpiler_passes.Pass.Loop_split { var = "i"; factor = 4 })
        k
    with
    | Ok (k', faults) ->
      if faults = [] && Unit_test.check ~trials:1 gemm gemm_shape k' = Unit_test.Pass then
        incr ok
    | Error m -> Alcotest.fail m
  done;
  Alcotest.(check bool)
    (Printf.sprintf "most pass applications clean (%d/30)" !ok)
    true (!ok >= 20)

let () =
  Alcotest.run "neural+repair"
    [ ( "faults",
        [ Alcotest.test_case "bound fault" `Quick test_fault_bound_breaks;
          Alcotest.test_case "param fault" `Quick test_fault_param_breaks;
          Alcotest.test_case "wrong scope fails compile" `Quick
            test_fault_structural_memory_compile;
          Alcotest.test_case "foreign axis fails compile" `Quick
            test_fault_foreign_axis_compile
        ] );
      ( "localize",
        [ Alcotest.test_case "finds failing buffer" `Quick test_localize_finds_failing_buffer;
          Alcotest.test_case "clean kernel" `Quick test_localize_clean_kernel;
          Alcotest.test_case "dynamic control flow" `Quick
            test_localize_flags_dynamic_control_flow;
          Alcotest.test_case "reads the oracle's trial" `Quick test_localize_reads_oracle_trial
        ] );
      ( "repair",
        [ Alcotest.test_case "bound" `Quick test_repair_bound;
          Alcotest.test_case "param" `Quick test_repair_param;
          Alcotest.test_case "index" `Quick test_repair_index_on_elementwise;
          Alcotest.test_case "candidate domains" `Quick test_candidates_respect_alignment
        ] );
      ( "annotation",
        [ Alcotest.test_case "gemm" `Quick test_annotate_gemm;
          Alcotest.test_case "softmax" `Quick test_annotate_softmax;
          Alcotest.test_case "meta prompt" `Quick test_meta_prompt
        ] );
      ( "oracle",
        [ Alcotest.test_case "deterministic" `Quick test_llm_deterministic;
          Alcotest.test_case "zero-shot worse" `Quick test_llm_zero_shot_worse_than_few_shot;
          Alcotest.test_case "pass level mostly clean" `Quick test_llm_pass_level_mostly_correct
        ] )
    ]
