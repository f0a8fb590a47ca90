open Xpiler_machine
open Xpiler_ops
open Xpiler_core
module Vclock = Xpiler_util.Vclock

let gemm = Registry.find_exn "gemm"
let gemm_shape = List.hd gemm.Opdef.shapes
let relu = Registry.find_exn "relu"
let relu_shape = List.hd relu.Opdef.shapes
let softmax = Registry.find_exn "softmax"
let softmax_shape = List.hd softmax.Opdef.shapes
let platforms = [ Platform.Cuda; Platform.Bang; Platform.Hip; Platform.Vnni ]

let run ?config ~src ~dst op shape =
  Xpiler.transcompile ?config ~src ~dst ~op ~shape ()

let case_name src dst (op : Opdef.t) shape =
  Printf.sprintf "%s->%s %s %s" (Platform.id_to_string src) (Platform.id_to_string dst)
    op.Opdef.name
    (String.concat "," (List.map (fun (d, v) -> Printf.sprintf "%s=%d" d v) shape))

(* ---- end-to-end translation, all 12 directions on one easy operator ---------- *)

let test_all_directions_relu () =
  let plats = [ Platform.Cuda; Platform.Bang; Platform.Hip; Platform.Vnni ] in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if src <> dst then begin
            let o = run ~src ~dst relu relu_shape in
            match o.Xpiler.status with
            | Xpiler.Success -> ()
            | s ->
              Alcotest.fail
                (Printf.sprintf "%s->%s: %s" (Platform.id_to_string src)
                   (Platform.id_to_string dst) (Xpiler.status_to_string s))
          end)
        plats)
    plats

let test_gemm_cuda_to_bang_tensorized () =
  let o = run ~src:Platform.Cuda ~dst:Platform.Bang gemm gemm_shape in
  Alcotest.(check bool) "success" true (o.Xpiler.status = Xpiler.Success);
  match o.Xpiler.kernel with
  | Some k ->
    Alcotest.(check bool) "uses mlp" true
      (List.exists
         (fun (i : Xpiler_ir.Intrin.t) -> Xpiler_ir.Intrin.equal_op i.op Xpiler_ir.Intrin.Mlp)
         (Xpiler_ir.Stmt.intrinsics k.Xpiler_ir.Kernel.body))
  | None -> Alcotest.fail "no kernel"

let test_target_text_is_valid_dialect () =
  let o = run ~src:Platform.Cuda ~dst:Platform.Bang softmax softmax_shape in
  match (o.Xpiler.status, o.Xpiler.target_text) with
  | Xpiler.Success, Some text -> (
    match Xpiler_lang.Parser.parse_platform Platform.Bang text with
    | k ->
      Alcotest.(check bool) "re-parsed kernel compiles" true
        (Checker.compile Platform.bang k = Ok ())
    | exception Xpiler_lang.Parser.Parse_error m -> Alcotest.fail ("unparseable output: " ^ m))
  | s, _ ->
    Alcotest.fail
      (match s with
      | Xpiler.Success -> "missing text"
      | s -> Xpiler.status_to_string s)

(* Codegen prints a multi-term intrinsic offset unparenthesized
   ([inp + i0 * 160 + i1 * 16 + ...]). These default-config vnni texts
   print one; each must parse back into a kernel that passes the unit
   test. *)
let test_multi_term_offsets_parse_back () =
  let gemv = Registry.find_exn "gemv" and conv = Registry.find_exn "conv2d_nhwc" in
  let conv_shape = [ ("h", 8); ("w", 8); ("ci", 16); ("co", 16) ] in
  List.iter
    (fun (src, (op : Opdef.t), shape) ->
      let name = case_name src Platform.Vnni op shape in
      let o = run ~src ~dst:Platform.Vnni op shape in
      match (o.Xpiler.status, o.Xpiler.target_text) with
      | (Xpiler.Success | Xpiler.Degraded), Some text -> (
        match Xpiler_lang.Parser.parse_platform Platform.Vnni text with
        | k ->
          Alcotest.(check bool) (name ^ ": parsed text passes") true
            (Unit_test.check ~trials:1 ~seed:1_000_003 op shape k = Unit_test.Pass)
        | exception Xpiler_lang.Parser.Parse_error m ->
          Alcotest.fail (name ^ ": unparseable output: " ^ m))
      | s, _ -> Alcotest.fail (name ^ ": not accepted: " ^ Xpiler.status_to_string s))
    [ (Platform.Bang, gemv, List.nth gemv.Opdef.shapes 0);
      (Platform.Bang, gemv, List.nth gemv.Opdef.shapes 1);
      (Platform.Cuda, conv, conv_shape);
      (Platform.Hip, conv, conv_shape)
    ]

let test_deterministic () =
  let o1 = run ~src:Platform.Cuda ~dst:Platform.Bang gemm gemm_shape in
  let o2 = run ~src:Platform.Cuda ~dst:Platform.Bang gemm gemm_shape in
  Alcotest.(check bool) "same status" true (o1.Xpiler.status = o2.Xpiler.status);
  Alcotest.(check bool) "same text" true (o1.Xpiler.target_text = o2.Xpiler.target_text)

let test_seed_changes_faults () =
  (* different seeds explore different fault draws over many attempts *)
  let distinct = Hashtbl.create 8 in
  for seed = 0 to 7 do
    let config = Config.with_seed Config.default seed in
    let o = run ~config ~src:Platform.Cuda ~dst:Platform.Bang gemm gemm_shape in
    Hashtbl.replace distinct (List.length o.Xpiler.faults_seen) ()
  done;
  Alcotest.(check bool) "fault counts vary across seeds" true (Hashtbl.length distinct > 1)

(* ---- ablations ---------------------------------------------------------------- *)

let count_success config ~src ~dst cases =
  List.fold_left
    (fun acc (c : Registry.case) ->
      let o = run ~config ~src ~dst c.op c.shape in
      if o.Xpiler.status = Xpiler.Success then acc + 1 else acc)
    0 cases

let test_smt_ablation_ordering () =
  (* over a case sample, full >= w/o SMT on the hardest direction *)
  let cs =
    List.filter
      (fun (c : Registry.case) -> List.hd c.op.Opdef.shapes == c.shape)
      (Registry.cases ())
  in
  let full = count_success Config.default ~src:Platform.Cuda ~dst:Platform.Bang cs in
  let wo = count_success Config.without_smt ~src:Platform.Cuda ~dst:Platform.Bang cs in
  Alcotest.(check bool)
    (Printf.sprintf "full (%d) >= w/o SMT (%d)" full wo)
    true (full >= wo)

let test_clock_breakdown_populated () =
  let o = run ~src:Platform.Cuda ~dst:Platform.Bang softmax softmax_shape in
  let clock = o.Xpiler.clock in
  Alcotest.(check bool) "annotation charged" true
    (Vclock.stage_total clock Vclock.Annotation > 0.0);
  Alcotest.(check bool) "llm charged" true
    (Vclock.stage_total clock Vclock.Llm_transform > 0.0);
  Alcotest.(check bool) "unit tests charged" true
    (Vclock.stage_total clock Vclock.Unit_test > 0.0)

let test_tuned_config_improves_throughput () =
  let o_plain = run ~src:Platform.Cuda ~dst:Platform.Bang gemm gemm_shape in
  let o_tuned =
    run ~config:Config.tuned ~src:Platform.Cuda ~dst:Platform.Bang gemm gemm_shape
  in
  match (o_plain.Xpiler.throughput, o_tuned.Xpiler.throughput) with
  | Some p, Some t ->
    Alcotest.(check bool) (Printf.sprintf "tuned %.3g >= plain %.3g" t p) true (t >= p)
  | _ -> Alcotest.fail "missing throughput"

(* a tuned translation depends only on its own inputs: gemm at its second
   registry shape tunes the same in a fresh session as right after a tuned
   run of the first shape *)
let test_tuned_translation_independent_of_history () =
  let config = Config.with_trace Config.tuned Xpiler_obs.Tracer.Detail in
  let shape_b = List.nth gemm.Opdef.shapes 1 in
  let tune shape = run ~config ~src:Platform.Cuda ~dst:Platform.Bang gemm shape in
  let alone = Xpiler_util.Session.fresh (fun () -> tune shape_b) in
  let after =
    Xpiler_util.Session.fresh (fun () ->
        ignore (tune gemm_shape);
        tune shape_b)
  in
  Alcotest.(check bool) "tuned" true
    (List.exists
       (function
         | Xpiler_obs.Event.Count { name = "mcts.simulations"; _ } -> true | _ -> false)
       alone.Xpiler.trace);
  Alcotest.(check bool) "same status" true (alone.Xpiler.status = after.Xpiler.status);
  Alcotest.(check (option string)) "same target text" alone.Xpiler.target_text
    after.Xpiler.target_text;
  Alcotest.(check (float 0.0)) "same modelled time" (Vclock.elapsed alone.Xpiler.clock)
    (Vclock.elapsed after.Xpiler.clock);
  Alcotest.(check bool) "same journal" true (alone.Xpiler.trace = after.Xpiler.trace)

(* a registry counter's total over all its label sets *)
let counter_total name =
  let module Metrics = Xpiler_obs.Metrics in
  List.fold_left
    (fun acc (s : Metrics.sample) ->
      match s.Metrics.value with
      | Metrics.Vcounter n when s.Metrics.name = name -> acc + n
      | _ -> acc)
    0 (Metrics.snapshot ())

(* the final unit test rejects MCTS's best rmsnorm kernel on HIP at this
   shape; the translation keeps the untuned kernel and counts the fallback *)
let test_tuning_rejected_counted () =
  let rejected () = counter_total "xpiler_tuning_rejected_total" in
  let rmsnorm = Registry.find_exn "rmsnorm" in
  let before = rejected () in
  let o =
    run ~config:Config.tuned ~src:Platform.Cuda ~dst:Platform.Hip rmsnorm [ ("r", 4); ("c", 64) ]
  in
  Alcotest.(check bool) "accepted" true (o.Xpiler.status = Xpiler.Success);
  Alcotest.(check int) "one rejected tuned kernel" 1 (rejected () - before)

let test_complexity_multiplier_ordering () =
  let da = Registry.find_exn "deformable_attention" in
  let da_k = da.Opdef.serial (List.hd da.Opdef.shapes) in
  let relu_k = relu.Opdef.serial relu_shape in
  Alcotest.(check bool) "deformable attention is the hardest" true
    (Xpiler.complexity_multiplier da_k > 3.0 *. Xpiler.complexity_multiplier relu_k)

(* ---- per-pass validation ------------------------------------------------------ *)

(* With no injected faults, no pass output may fail validation: the target
   checker rejects only diagnostics the pass's checkpoint lacks, and a
   fault-free pass must never add one. A false positive would climb the
   ladder (a rung past [validate]) or end in an error status. *)
let test_fault_free_never_escalates () =
  let config = Config.with_fault_scale Config.default 0.0 in
  let escaped_before = counter_total "xpiler_faults_escaped_total" in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if src <> dst then
            List.iter
              (fun (op : Opdef.t) ->
                let shape = List.hd op.Opdef.shapes in
                let name = case_name src dst op shape in
                let o = run ~config ~src ~dst op shape in
                if not (Xpiler.accepted o.Xpiler.status) then
                  Alcotest.fail (name ^ ": " ^ Xpiler.status_to_string o.Xpiler.status);
                List.iter
                  (fun (e : Ledger.entry) ->
                    if e.Ledger.rung <> Ledger.Validate then
                      Alcotest.fail
                        (Printf.sprintf "%s: %s escalated to %s" name
                           (Xpiler_passes.Pass.describe e.Ledger.spec)
                           (Ledger.rung_name e.Ledger.rung)))
                  o.Xpiler.ledger)
              Registry.all)
        platforms)
    platforms;
  Alcotest.(check int) "no escaped faults" 0
    (counter_total "xpiler_faults_escaped_total" - escaped_before)

(* Faults only the target checker sees (a foreign axis loop) are caught at
   the pass that made them and re-prompted there. Without the per-pass
   checker the first two cases end in a compile error at finalize. In the
   third (fault scale 20), the output that the checker rejects passes its
   unit test, so the repairer hands it back unchanged; the SMT rung must not
   commit it. *)
let test_faults_die_at_their_pass () =
  let self_attention = Registry.find_exn "self_attention"
  and gelu = Registry.find_exn "gelu"
  and rmsnorm = Registry.find_exn "rmsnorm" in
  let storm = Config.with_fault_scale Config.default 20.0 in
  List.iter
    (fun (config, src, dst, (op : Opdef.t), shape) ->
      let o = run ~config ~src ~dst op shape in
      Alcotest.(check string) (case_name src dst op shape) "success"
        (Xpiler.status_to_string o.Xpiler.status))
    [ (Config.default, Platform.Vnni, Platform.Bang, self_attention, [ ("s", 64); ("d", 32) ]);
      (Config.default, Platform.Hip, Platform.Bang, gelu, [ ("n", 256) ]);
      (storm, Platform.Bang, Platform.Vnni, rmsnorm, [ ("r", 4); ("c", 64) ]) ]

(* finalize reports the trial that failed. This fault-scale-20 relu launches
   taskId=254 after loop recovery: trial 0 passes (both inputs at elements
   254 and 255 are negative, so 0 is the right answer there) and trial 1
   fails. *)
let test_finalize_reports_failing_trial () =
  let config = Config.with_fault_scale Config.default 20.0 in
  let o = run ~config ~src:Platform.Hip ~dst:Platform.Bang relu [ ("n", 256) ] in
  Alcotest.(check string) "status"
    "computation error: output out diverges (max abs diff 0.98)"
    (Xpiler.status_to_string o.Xpiler.status)

(* ---- report ------------------------------------------------------------------ *)

let test_report_render_and_csv () =
  let r =
    Report.make ~title:"t" ~cols:[ "a"; "b" ]
      [ ("row1", [ Report.Pct 97.61; Report.Pair (100.0, 91.7) ]);
        ("row2", [ Report.Ratio 0.784; Report.Count 42 ]);
        ("comma, quote\"", [ Report.Text "x"; Report.Num 1.5 ]) ]
  in
  let text = Report.render r in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "title" true (contains text "=== t ===");
  Alcotest.(check bool) "pct" true (contains text "97.6");
  Alcotest.(check bool) "pair" true (contains text "100.0 / 91.7");
  Alcotest.(check bool) "ratio" true (contains text "0.78x");
  let csv = Report.to_csv r in
  Alcotest.(check bool) "csv header" true (contains csv ",a,b");
  Alcotest.(check bool) "csv escaping" true (contains csv "\"comma, quote\"\"\"");
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "xpiler_report_test" in
  let path = Report.save_csv ~dir ~name:"t" r in
  Alcotest.(check bool) "file written" true (Sys.file_exists path);
  Sys.remove path

(* regression: delimiter characters inside a Text *cell* (not just the row
   label) must be quoted, else downstream CSV readers mis-split the row *)
let test_report_csv_cell_escaping () =
  let r =
    Report.make ~title:"cells" ~cols:[ "c" ]
      [ ("plain", [ Report.Text "a,b" ]);
        ("quoted", [ Report.Text "say \"hi\"" ]);
        ("multiline", [ Report.Text "two\nlines" ]);
        ("cr", [ Report.Text "carriage\rreturn" ]) ]
  in
  let lines = String.split_on_char '\n' (Report.to_csv r) in
  Alcotest.(check (option string)) "comma cell quoted" (Some "plain,\"a,b\"")
    (List.nth_opt lines 1);
  Alcotest.(check (option string)) "quote cell doubled"
    (Some "quoted,\"say \"\"hi\"\"\"")
    (List.nth_opt lines 2);
  (* the embedded newline splits the physical line; both halves stay inside
     one quoted field *)
  Alcotest.(check (option string)) "newline cell opens quote" (Some "multiline,\"two")
    (List.nth_opt lines 3);
  Alcotest.(check (option string)) "newline cell closes quote" (Some "lines\"")
    (List.nth_opt lines 4);
  Alcotest.(check (option string)) "cr cell quoted" (Some "cr,\"carriage\rreturn\"")
    (List.nth_opt lines 5)

(* ---- totality ---------------------------------------------------------------- *)

(* like an unopenable store, an unwritable trace sink is a warning: the
   outcome and its trace still come back *)
let test_unwritable_sink () =
  let file = Filename.temp_file "xpiler_sink" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  (* a path below a regular file can never be opened *)
  let sink = Filename.concat file "out.jsonl" in
  let config = Config.with_trace ~sink Config.default Xpiler_obs.Tracer.Detail in
  let o = run ~config ~src:Platform.Cuda ~dst:Platform.Bang relu relu_shape in
  Alcotest.(check string) "status" "success" (Xpiler.status_to_string o.Xpiler.status);
  Alcotest.(check bool) "trace returned" true (o.Xpiler.trace <> [])

(* the error boundary: an exception a callee raises ends in a typed status
   that names it *)
let boundary_message = "internal error: "

let check_internal_error name ~names o =
  Alcotest.(check (option string)) (name ^ ": no target text") None o.Xpiler.target_text;
  match o.Xpiler.status with
  | Xpiler.Compile_error m ->
    Alcotest.(check string) (name ^ ": boundary status") (boundary_message ^ names) m
  | s -> Alcotest.fail (name ^ ": " ^ Xpiler.status_to_string s)

let test_raising_reference () =
  let boom = { relu with Opdef.serial = (fun _ -> failwith "boom") } in
  check_internal_error "raising serial" ~names:{|Failure("boom")|}
    (run ~src:Platform.Cuda ~dst:Platform.Bang boom relu_shape)

let test_empty_shape () =
  check_internal_error "empty shape" ~names:"Not_found"
    (run ~src:Platform.Cuda ~dst:Platform.Bang relu [])

(* a buffer over the oracle's limit ends the translation before anything
   is allocated, naming the buffer and its element count; a count that
   overflows int is named as such *)
let test_too_large_shape () =
  let gemm = Registry.find_exn "gemm" in
  List.iter
    (fun (m, k, count) ->
      let shape = [ ("m", m); ("n", 100_000); ("k", k) ] in
      let o = run ~src:Platform.Cuda ~dst:Platform.Bang gemm shape in
      Alcotest.(check string) "status"
        ("computation error: buffer A has " ^ count ^ " elements, over the 16777216-element limit")
        (Xpiler.status_to_string o.Xpiler.status);
      Alcotest.(check (option string)) "no target text" None o.Xpiler.target_text)
    [ (100_000_000, 100_000, "10000000000000"); (1 lsl 31, 1 lsl 31, "an overflowing number of") ]

(* Random op x shape x direction x fault scale. Each dim keeps the op's
   first registered value or is redrawn as 1, a small odd number, or an
   oversize 2d+1; a redraw is kept only while the product of dims stays
   within twice the registered one, so no case costs much more than the
   registered shape. *)
let gen_case =
  let open QCheck.Gen in
  let* op = oneofl Registry.all in
  let dims = List.hd op.Opdef.shapes in
  let* draws =
    flatten_l
      (List.map
         (fun (_, d) ->
           frequency [ (1, return d); (2, oneofl [ 1; 3; 5; 7; 17; 33; (2 * d) + 1 ]) ])
         dims)
  in
  let budget = 2 * List.fold_left (fun acc (_, d) -> acc * d) 1 dims in
  let _, shape =
    List.fold_left2
      (fun (product, acc) (k, d) v ->
        let v = if product / d * v <= budget then v else d in
        (product / d * v, acc @ [ (k, v) ]))
      (budget / 2, []) dims draws
  in
  let* src = oneofl platforms in
  let* dst = oneofl (List.filter (( <> ) src) platforms) in
  let* scale = oneofl [ 0.0; 1.0; 5.0; 20.0; 1000.0 ] in
  let* seed = int_bound 1000 in
  return (op, shape, src, dst, scale, seed)

let print_case ((op : Opdef.t), shape, src, dst, scale, seed) =
  Printf.sprintf "%s [%s] %s->%s fault-scale %g seed %d" op.Opdef.name
    (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) shape))
    (Platform.id_to_string src) (Platform.id_to_string dst) scale seed

(* no exception reaches the error boundary, and the same inputs give the
   same status and target text *)
let prop_total =
  QCheck.Test.make ~name:"transcompile is total and deterministic" ~count:40
    (QCheck.make ~print:print_case gen_case)
    (fun (op, shape, src, dst, scale, seed) ->
      let config = Config.with_fault_scale (Config.with_seed Config.default seed) scale in
      let go () =
        let o = run ~config ~src ~dst op shape in
        (Xpiler.status_to_string o.Xpiler.status, o.Xpiler.target_text)
      in
      let ((status, _) as first) = go () in
      if String.starts_with ~prefix:("compile error: " ^ boundary_message) status then
        QCheck.Test.fail_reportf "reached the error boundary: %s" status;
      first = go ())

(* ---- config ----------------------------------------------------------------- *)

let test_configs () =
  let has rung (c : Config.t) = List.mem rung c.Config.ladder in
  Alcotest.(check bool) "default uses smt" true (has Config.Smt_repair Config.default);
  Alcotest.(check bool) "ablation disables smt" false (has Config.Smt_repair Config.without_smt);
  Alcotest.(check bool) "self-debug rung" true
    (has Config.Self_debug Config.without_smt_self_debug);
  Alcotest.(check bool) "tuned tunes" true Config.tuned.Config.tune

let () =
  Alcotest.run "core"
    [ ( "end-to-end",
        [ Alcotest.test_case "all 12 directions (relu)" `Quick test_all_directions_relu;
          Alcotest.test_case "gemm tensorized on bang" `Quick test_gemm_cuda_to_bang_tensorized;
          Alcotest.test_case "target text valid" `Quick test_target_text_is_valid_dialect;
          Alcotest.test_case "multi-term offsets parse back" `Quick
            test_multi_term_offsets_parse_back;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "seeds vary" `Quick test_seed_changes_faults
        ] );
      ( "ablations",
        [ Alcotest.test_case "smt ordering" `Slow test_smt_ablation_ordering;
          Alcotest.test_case "clock breakdown" `Quick test_clock_breakdown_populated;
          Alcotest.test_case "tuning improves" `Quick test_tuned_config_improves_throughput;
          Alcotest.test_case "rejected tuning counted" `Quick test_tuning_rejected_counted;
          Alcotest.test_case "tuned translation independent of history" `Quick
            test_tuned_translation_independent_of_history;
          Alcotest.test_case "complexity ordering" `Quick test_complexity_multiplier_ordering
        ] );
      ( "validation",
        [ Alcotest.test_case "fault-free passes never escalate" `Quick
            test_fault_free_never_escalates;
          Alcotest.test_case "faults die at their pass" `Quick test_faults_die_at_their_pass;
          Alcotest.test_case "finalize reports the failing trial" `Quick
            test_finalize_reports_failing_trial
        ] );
      ( "report",
        [ Alcotest.test_case "render and csv" `Quick test_report_render_and_csv;
          Alcotest.test_case "csv cell escaping" `Quick test_report_csv_cell_escaping
        ] );
      ( "totality",
        [ Alcotest.test_case "unwritable trace sink" `Quick test_unwritable_sink;
          Alcotest.test_case "raising reference is a status" `Quick test_raising_reference;
          Alcotest.test_case "empty shape is a status" `Quick test_empty_shape;
          Alcotest.test_case "too-large shape is a status" `Quick test_too_large_shape;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20250706 |]) prop_total ] );
      ("config", [ Alcotest.test_case "variants" `Quick test_configs ])
    ]
