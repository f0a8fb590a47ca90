(* Command-line front-end for the QiMeng-Xpiler transcompiler. *)

open Cmdliner
open Xpiler_machine
open Xpiler_ops
open Xpiler_core

let platform_conv =
  let parse s =
    match Platform.id_of_string (String.lowercase_ascii s) with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown platform %s (cuda|bang|hip|vnni|c)" s))
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Platform.id_to_string p))

let op_arg =
  let doc = "Operator name (see `xpiler list-ops`)." in
  Arg.(required & opt (some string) None & info [ "op" ] ~docv:"OP" ~doc)

let shape_arg =
  let doc =
    "Shape as comma-separated positive dims, e.g. m=16,n=64,k=32. Dims left out keep the \
     operator's first benchmark shape."
  in
  Arg.(value & opt (some string) None & info [ "shape" ] ~docv:"SHAPE" ~doc)

let src_arg =
  let doc = "Source platform (cuda, bang, hip, vnni)." in
  Arg.(required & opt (some platform_conv) None & info [ "from" ] ~docv:"SRC" ~doc)

let dst_arg =
  let doc = "Target platform (cuda, bang, hip, vnni)." in
  Arg.(required & opt (some platform_conv) None & info [ "to" ] ~docv:"DST" ~doc)

let tune_arg =
  let doc = "Run hierarchical auto-tuning on the accepted translation." in
  Arg.(value & flag & info [ "tune" ] ~doc)

let seed_arg =
  let doc = "Seed for the (simulated) neural oracle." in
  Arg.(value & opt int 20250706 & info [ "seed" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for parallel auto-tuning. Deterministic: any value produces \
     identical results and traces, only wall-clock changes."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let no_prune_arg =
  let doc =
    "Disable bound-based pruning of intra-pass tuning candidates. Pruning is lossless \
     (the chosen schedule never changes, only modelled tuning time); the flag exists for \
     A/B measurement."
  in
  Arg.(value & flag & info [ "no-tune-prune" ] ~doc)

let no_warm_start_arg =
  let doc =
    "Disable warm-starting MCTS from the in-process schedule database (recorded best \
     schedules of previously tuned, structurally similar kernels)."
  in
  Arg.(value & flag & info [ "no-warm-start" ] ~doc)

let max_escalation_arg =
  let doc =
    "Cap the fault-class escalation ladder at rung $(docv) (0 validate-only, 1 +hinted \
     re-prompt, 2 +SMT repair, 3 +symbolic fallback, 4 +skip-with-rollback)."
  in
  Arg.(value & opt int 4 & info [ "max-escalation" ] ~docv:"RUNG" ~doc)

let no_rollback_arg =
  let doc =
    "Commit a pass's output even when validation failed and every repair rung gave up \
     (the pre-resilience behaviour); skipped-pass rollback is on by default."
  in
  Arg.(value & flag & info [ "no-rollback" ] ~doc)

let fault_scale_arg =
  let doc =
    "Multiplier on the simulated LLM's fault-injection rates (default 1.0, the \
     calibrated paper rates); raise it to watch the escalation ladder work."
  in
  Arg.(value & opt float 1.0 & info [ "fault-scale" ] ~docv:"F" ~doc)

let store_dir_arg =
  let doc =
    "Durable knowledge store directory: the warm-start schedule DB, transposition \
     table and solver memo are loaded from it before translating and written through \
     (append-only WAL + snapshots) during it, so later processes warm-start from this \
     run's learning. Defaults to \\$XPILER_STORE_DIR when that is set. Persisted \
     entries carry their effect receipts: results and traces are identical with or \
     without the store — only evals-to-target and wall-clock change."
  in
  Arg.(value & opt (some string) None & info [ "store-dir" ] ~docv:"DIR" ~doc)

let no_store_arg =
  let doc = "Ignore \\$XPILER_STORE_DIR and run without the durable knowledge store." in
  Arg.(value & flag & info [ "no-store" ] ~doc)

(* CLI precedence: explicit flag > environment > off; --no-store vetoes both *)
let effective_store_dir store_dir no_store =
  if no_store then None
  else match store_dir with Some d -> Some d | None -> Xpiler_store.Store.env_dir ()

let trace_arg =
  let doc =
    "Write a JSONL trace journal of the translation to $(docv) (replay it with `xpiler \
     trace`)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_level_arg =
  let level_conv =
    let parse s =
      match Xpiler_obs.Tracer.level_of_string s with
      | Some l -> Ok l
      | None -> Error (`Msg (Printf.sprintf "unknown trace level %s (off|stages|detail)" s))
    in
    Arg.conv (parse, fun fmt l -> Format.pp_print_string fmt (Xpiler_obs.Tracer.level_to_string l))
  in
  let doc = "Trace level: off, stages (spans only) or detail (spans + metrics)." in
  Arg.(value & opt level_conv Xpiler_obs.Tracer.Detail & info [ "trace-level" ] ~docv:"LEVEL" ~doc)

(* A --shape value overrides some of the op's declared dims; the rest keep
   the op's first registered shape. Unknown dims, non-integers and values
   <= 0 are usage errors: one line on stderr, exit 2. *)
let parse_shape (op : Opdef.t) arg =
  let defaults = List.hd op.Opdef.shapes in
  match arg with
  | None -> defaults
  | Some s ->
    let reject fmt =
      Printf.ksprintf
        (fun msg ->
          Printf.eprintf "xpiler: bad --shape %S for %s: %s\n" s op.Opdef.name msg;
          exit 2)
        fmt
    in
    let override kv =
      match String.split_on_char '=' kv with
      | [ k; v ] -> (
        let k = String.trim k and v = String.trim v in
        if not (List.mem_assoc k defaults) then
          reject "unknown dim %S (declared: %s)" k (String.concat ", " (List.map fst defaults));
        match int_of_string_opt v with
        | Some n when n > 0 -> (k, n)
        | _ -> reject "%s=%s is not a positive integer" k v)
      | _ -> reject "expected NAME=VALUE, got %S" kv
    in
    let overrides = List.map override (String.split_on_char ',' s) in
    List.map
      (fun (k, d) -> (k, Option.value ~default:d (List.assoc_opt k overrides)))
      defaults

let find_op name =
  match Registry.find name with
  | Some op -> op
  | None ->
    Printf.eprintf "unknown operator %s; try `xpiler list-ops`\n" name;
    exit 2

(* ---- translate ------------------------------------------------------------ *)

let translate op_name shape src dst tune seed jobs no_prune no_warm_start max_escalation
    no_rollback fault_scale store_dir no_store trace trace_level =
  let op = find_op op_name in
  let shape = parse_shape op shape in
  let config =
    let base = if tune then Config.tuned else Config.default in
    let base = Config.with_seed base seed in
    let base = Config.with_jobs base jobs in
    let base =
      { base with
        Config.tuning_prune = not no_prune;
        tuning_warm_start = not no_warm_start;
        rollback = not no_rollback;
        store_dir = effective_store_dir store_dir no_store
      }
    in
    let base = Config.with_max_escalation base max_escalation in
    let base = Config.with_fault_scale base fault_scale in
    match trace with
    | Some sink -> Config.with_trace ~sink base trace_level
    | None -> base
  in
  Printf.printf "// source (%s):\n%s\n" (Platform.id_to_string src)
    (Idiom.source_text src op shape);
  let o = Xpiler.transcompile ~config ~src ~dst ~op ~shape () in
  Printf.printf "// status: %s\n" (Xpiler.status_to_string o.Xpiler.status);
  Printf.printf "// passes: %s\n"
    (String.concat " | " (List.map Xpiler_passes.Pass.describe o.Xpiler.specs_applied));
  Printf.printf "// repairs: %d attempted, %d succeeded\n" o.Xpiler.repairs_attempted
    o.Xpiler.repairs_succeeded;
  (match o.Xpiler.skipped_passes with
  | [] -> ()
  | skipped ->
    Printf.printf "// skipped (rolled back): %s\n"
      (String.concat " | " (List.map Xpiler_passes.Pass.describe skipped)));
  (match Ledger.escalated o.Xpiler.ledger with
  | [] -> ()
  | escalated ->
    print_string (Report.render (Ledger.report escalated)));
  Printf.printf "// modelled compile time: %.2f h\n"
    (Xpiler_util.Vclock.elapsed o.Xpiler.clock /. 3600.0);
  (match o.Xpiler.throughput with
  | Some t -> Printf.printf "// modelled throughput: %.3g ops/s\n" t
  | None -> ());
  (match trace with
  | Some path ->
    Printf.printf "// trace journal: %s (%d events)\n" path (List.length o.Xpiler.trace)
  | None -> ());
  match o.Xpiler.target_text with
  | Some text -> Printf.printf "\n// target (%s):\n%s" (Platform.id_to_string dst) text
  | None -> ()

let translate_cmd =
  let info = Cmd.info "translate" ~doc:"Transcompile an operator between platforms." in
  Cmd.v info
    Term.(
      const translate $ op_arg $ shape_arg $ src_arg $ dst_arg $ tune_arg $ seed_arg
      $ jobs_arg $ no_prune_arg $ no_warm_start_arg $ max_escalation_arg $ no_rollback_arg
      $ fault_scale_arg $ store_dir_arg $ no_store_arg $ trace_arg $ trace_level_arg)

(* ---- show-source ----------------------------------------------------------- *)

let show_source op_name shape platform =
  let op = find_op op_name in
  let shape = parse_shape op shape in
  print_string (Idiom.source_text platform op shape)

let show_source_cmd =
  let info = Cmd.info "show-source" ~doc:"Print an operator's idiomatic source program." in
  let platform_pos =
    Arg.(required & pos 0 (some platform_conv) None & info [] ~docv:"PLATFORM")
  in
  Cmd.v info Term.(const show_source $ op_arg $ shape_arg $ platform_pos)

(* ---- list-ops --------------------------------------------------------------- *)

let list_ops () =
  List.iter
    (fun (op : Opdef.t) ->
      Printf.printf "%-22s %-12s shapes: %s\n" op.name (Opdef.class_name op.cls)
        (String.concat " | "
           (List.map
              (fun sh -> String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) sh))
              (List.filteri (fun i _ -> i < 2) op.shapes))))
    Registry.all;
  Printf.printf "(%d operators, %d benchmark cases)\n" (List.length Registry.all)
    (List.length (Registry.cases ()))

let list_ops_cmd =
  let info = Cmd.info "list-ops" ~doc:"List the benchmark operators." in
  Cmd.v info Term.(const list_ops $ const ())

(* ---- lint --------------------------------------------------------------------- *)

(* run the platform checker plus the static analyzer over idiom kernels; the
   same pre-validation stage the pipeline applies after every LLM pass *)
let lint_kernel ~platform ~extents kernel =
  let checker_diags =
    match Checker.compile (Platform.of_id platform) kernel with
    | Ok () -> []
    | Error es -> es
  in
  let analyzer_diags =
    Xpiler_analysis.Analyzer.analyze ~extents kernel
    |> List.map (fun (f : Xpiler_analysis.Analyzer.finding) -> f.Xpiler_analysis.Analyzer.diag)
  in
  checker_diags @ analyzer_diags

let lint op_filter shape platform_filter all =
  let ops =
    match (op_filter, all) with
    | Some name, _ -> [ find_op name ]
    | None, true -> Registry.all
    | None, false ->
      Printf.eprintf "lint: pass --op NAME or --all\n";
      exit 2
  in
  let platforms =
    match platform_filter with
    | Some p -> [ p ]
    | None -> List.map (fun (p : Platform.t) -> p.Platform.id) Platform.all
  in
  let dirty = ref 0 and checked = ref 0 in
  List.iter
    (fun (op : Opdef.t) ->
      let shape = parse_shape op shape in
      let extents =
        List.map (fun (b : Opdef.buffer_spec) -> (b.buf_name, b.size shape)) op.Opdef.buffers
      in
      List.iter
        (fun pid ->
          incr checked;
          let kernel = Idiom.source pid op shape in
          match lint_kernel ~platform:pid ~extents kernel with
          | [] -> ()
          | diags ->
            if List.exists Xpiler_ir.Diag.is_error diags then incr dirty;
            Printf.printf "%s @ %s:\n" op.name (Platform.id_to_string pid);
            List.iter (fun d -> Printf.printf "  %s\n" (Xpiler_ir.Diag.to_string d)) diags)
        platforms)
    ops;
  Printf.printf "%d kernels linted, %d with errors\n" !checked !dirty;
  if !dirty > 0 then exit 1

let lint_cmd =
  let info =
    Cmd.info "lint"
      ~doc:
        "Statically check kernels: platform compilation rules plus race, barrier, \
         bounds and def-use analysis."
  in
  let op_opt =
    let doc = "Operator to lint (default with --all: every operator)." in
    Arg.(value & opt (some string) None & info [ "op" ] ~docv:"OP" ~doc)
  in
  let platform_opt =
    let doc = "Platform whose idiom kernel to lint (default: all platforms)." in
    Arg.(value & opt (some platform_conv) None & info [ "on" ] ~docv:"PLATFORM" ~doc)
  in
  let all_flag =
    let doc = "Lint every registered operator." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  Cmd.v info Term.(const lint $ op_opt $ shape_arg $ platform_opt $ all_flag)

(* ---- trace ------------------------------------------------------------------- *)

(* replay a saved JSONL journal into the summary tables and, optionally,
   Chrome trace-event JSON loadable in chrome://tracing or Perfetto *)
let trace_replay journal chrome_out =
  match Xpiler_obs.Journal.read_file journal with
  | Error m ->
    Printf.eprintf "trace: cannot read %s: %s\n" journal m;
    exit 2
  | Ok events ->
    let summary = Xpiler_obs.Summary.of_events events in
    print_string (Obs_report.render summary);
    Printf.printf "\n%d events, %.2f modelled hours total\n" summary.Xpiler_obs.Summary.events
      (summary.Xpiler_obs.Summary.total_seconds /. 3600.0);
    (match chrome_out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Xpiler_obs.Chrome.to_string events);
      close_out oc;
      Printf.printf "wrote Chrome trace JSON to %s (load in chrome://tracing or Perfetto)\n"
        path)

let trace_cmd =
  let info =
    Cmd.info "trace"
      ~doc:
        "Replay a trace journal (written by `translate --trace`) into summary tables and \
         Chrome trace-event JSON."
  in
  let journal_pos =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"JOURNAL.jsonl")
  in
  let chrome_opt =
    let doc = "Also export Chrome trace-event JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE" ~doc)
  in
  Cmd.v info Term.(const trace_replay $ journal_pos $ chrome_opt)

(* ---- metrics ----------------------------------------------------------------- *)

(* run a translation with the wall-clock profiler on, then print the registry
   snapshot and the profiled span table; tuning is on by default so the
   cache/transposition meters have something to show *)
let metrics_run op_name shape src dst no_tune seed jobs fault_scale store_dir no_store
    openmetrics_out json_out =
  let op = find_op op_name in
  let shape = parse_shape op shape in
  let config =
    let base = if no_tune then Config.default else Config.tuned in
    let base = Config.with_seed base seed in
    let base = Config.with_jobs base jobs in
    let base = Config.with_fault_scale base fault_scale in
    (* root-parallel search batches share the transposition table, which is
       what makes its hit/miss meters informative in a single run *)
    let mcts = { base.Config.mcts with Xpiler_tuning.Mcts.root_parallel = 4 } in
    { base with
      Config.profile = true;
      mcts;
      store_dir = effective_store_dir store_dir no_store
    }
  in
  Xpiler_obs.Metrics.reset ();
  Xpiler_obs.Prof.reset ();
  let o = Xpiler.transcompile ~config ~src ~dst ~op ~shape () in
  Printf.printf "// %s: %s -> %s, status: %s%s\n\n" op.Opdef.name (Platform.id_to_string src)
    (Platform.id_to_string dst)
    (Xpiler.status_to_string o.Xpiler.status)
    (if no_tune then "" else " (tuned)");
  let samples = Xpiler_obs.Metrics.snapshot () in
  print_string (Obs_report.render_metrics samples);
  let prof = Xpiler_obs.Prof.report () in
  print_string (Obs_report.render_prof prof);
  (match openmetrics_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Xpiler_obs.Metrics.to_openmetrics samples);
    close_out oc;
    Printf.printf "wrote OpenMetrics text to %s\n" path);
  match json_out with
  | None -> ()
  | Some path ->
    let j =
      Xpiler_obs.Json.Obj
        [ ("metrics", Xpiler_obs.Metrics.to_json samples);
          ("profile", Xpiler_obs.Prof.to_json prof) ]
    in
    let oc = open_out path in
    output_string oc (Xpiler_obs.Json.to_string j);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote metrics JSON to %s\n" path

let metrics_cmd =
  let info =
    Cmd.info "metrics"
      ~doc:
        "Translate (with auto-tuning unless --no-tune) and print the metrics-registry \
         snapshot — cache hit rates, escalation rungs, SMT steps, pool usage — plus \
         the wall time and allocation of each profiled span."
  in
  let no_tune_flag =
    let doc = "Skip auto-tuning (the tuner is on by default here, unlike `translate`)." in
    Arg.(value & flag & info [ "no-tune" ] ~doc)
  in
  let openmetrics_opt =
    let doc = "Export the snapshot in OpenMetrics/Prometheus text format to $(docv)." in
    Arg.(value & opt (some string) None & info [ "openmetrics" ] ~docv:"FILE" ~doc)
  in
  let json_opt =
    let doc = "Export the snapshot and profiler report as a self-contained JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  Cmd.v info
    Term.(
      const metrics_run $ op_arg $ shape_arg $ src_arg $ dst_arg $ no_tune_flag $ seed_arg
      $ jobs_arg $ fault_scale_arg $ store_dir_arg $ no_store_arg $ openmetrics_opt
      $ json_opt)

(* ---- bench-diff -------------------------------------------------------------- *)

let bench_diff history eval_file tuning_file resilience_file repair_file threshold exact_only
    =
  let module BH = Xpiler_obs.Bench_history in
  let hist =
    match BH.load ~path:history () with
    | Ok h -> h
    | Error m ->
      Printf.eprintf "bench-diff: %s\n" m;
      exit 2
  in
  let regressions = ref 0 in
  let seen = ref 0 in
  let check bench path =
    if Sys.file_exists path then begin
      incr seen;
      match BH.of_bench_file ~bench path with
      | Error m ->
        Printf.eprintf "bench-diff: %s\n" m;
        exit 2
      | Ok entry ->
        Printf.printf "%s (%s%s):\n" path bench (if entry.BH.smoke then ", smoke" else "");
        let verdicts = BH.diff ~threshold_scale:threshold ~exact_only ~history:hist entry in
        if verdicts = [] then Printf.printf "  no spec'd metrics\n"
        else
          List.iter
            (fun (v : BH.verdict) ->
              if v.BH.regressed then incr regressions;
              Printf.printf "  %s %-24s %s\n"
                (if v.BH.regressed then "REGRESSION" else "ok        ")
                v.BH.metric v.BH.detail)
            verdicts
    end
  in
  check "eval" eval_file;
  check "tuning" tuning_file;
  check "resilience" resilience_file;
  check "repair" repair_file;
  if !seen = 0 then begin
    Printf.eprintf "bench-diff: no BENCH_*.json found (looked for %s, %s, %s, %s)\n" eval_file
      tuning_file resilience_file repair_file;
    exit 2
  end;
  if !regressions > 0 then begin
    Printf.printf "%d regression(s) against %s (%d history entries)\n" !regressions history
      (List.length hist);
    exit 1
  end
  else Printf.printf "no regressions against %s (%d history entries)\n" history (List.length hist)

let bench_diff_cmd =
  let info =
    Cmd.info "bench-diff"
      ~doc:
        "Compare current BENCH_eval.json / BENCH_tuning.json / BENCH_resilience.json / \
         BENCH_repair.json headline numbers against results/history.jsonl and fail \
         (exit 1) on regressions beyond the per-metric thresholds."
  in
  let history_opt =
    let doc = "History file (JSONL, appended by the bench executables)." in
    Arg.(value & opt string "results/history.jsonl" & info [ "history" ] ~docv:"FILE" ~doc)
  in
  let eval_opt =
    let doc = "Evaluation-engine bench report." in
    Arg.(value & opt string "BENCH_eval.json" & info [ "eval" ] ~docv:"FILE" ~doc)
  in
  let tuning_opt =
    let doc = "Auto-tuner bench report." in
    Arg.(value & opt string "BENCH_tuning.json" & info [ "tuning" ] ~docv:"FILE" ~doc)
  in
  let resilience_opt =
    let doc = "Resilience bench report." in
    Arg.(value & opt string "BENCH_resilience.json" & info [ "resilience" ] ~docv:"FILE" ~doc)
  in
  let repair_opt =
    let doc = "Repair/SMT hot-path bench report." in
    Arg.(value & opt string "BENCH_repair.json" & info [ "repair" ] ~docv:"FILE" ~doc)
  in
  let threshold_opt =
    let doc =
      "Scale factor on every per-metric regression threshold (2.0 = twice as tolerant, \
       0.5 = twice as strict)."
    in
    Arg.(value & opt float 1.0 & info [ "threshold" ] ~docv:"SCALE" ~doc)
  in
  let exact_only_flag =
    let doc =
      "Check only deterministic (schedule- and wall-clock-independent) metrics, as the \
       bench smoke gates do; wall-clock throughputs are skipped."
    in
    Arg.(value & flag & info [ "exact-only" ] ~doc)
  in
  Cmd.v info
    Term.(
      const bench_diff $ history_opt $ eval_opt $ tuning_opt $ resilience_opt $ repair_opt
      $ threshold_opt $ exact_only_flag)

(* ---- store ------------------------------------------------------------------- *)

let store_action dir action =
  let module Store = Xpiler_store.Store in
  let dir =
    match (dir, Store.env_dir ()) with
    | Some d, _ -> d
    | None, Some d -> d
    | None, None ->
      Printf.eprintf "store: no directory (pass --dir or set $XPILER_STORE_DIR)\n";
      exit 2
  in
  let t =
    match Store.open_store ~dir () with
    | Ok t -> t
    | Error m ->
      Printf.eprintf "store: %s\n" m;
      exit 2
  in
  let print_counts label (c : Store.counts) =
    Printf.printf "%-10s schedule %d | transposition %d | solver memo %d  (total %d)\n" label
      c.Store.schedule c.Store.transposition c.Store.solver_memo (Store.total c)
  in
  match action with
  | `Stats ->
    let info = Store.scan t in
    Printf.printf "dir:    %s\n" info.Store.info_dir;
    Printf.printf "shards: %d\n" info.Store.info_shards;
    print_counts "snapshot:" info.Store.snapshot_records;
    print_counts "wal:" info.Store.wal_records;
    Printf.printf "bytes:  %d (%.1f KiB)\n" info.Store.bytes
      (float_of_int info.Store.bytes /. 1024.0);
    if info.Store.damaged then
      Printf.printf "damaged: yes (torn tails load as a valid prefix; compact to heal)\n"
  | `Compact -> (
    match Store.compact t with
    | Ok s ->
      Printf.printf "compacted %d record(s) into %d (%d bytes) in %s\n" s.Store.records_in
        s.Store.records_out s.Store.bytes dir
    | Error m ->
      Printf.eprintf "store: %s\n" m;
      exit 2)
  | `Clear ->
    let removed = Store.clear_files t in
    Printf.printf "removed %d shard file%s from %s\n" removed
      (if removed = 1 then "" else "s")
      dir

let store_cmd =
  let info =
    Cmd.info "store"
      ~doc:
        "Inspect the durable knowledge store ($(b,stats), the default), fold its \
         write-ahead logs into fresh snapshots ($(b,compact)), or delete its contents \
         ($(b,clear)). The store persists the warm-start schedule DB, transposition \
         table and solver memo under \\$XPILER_STORE_DIR (or $(b,--dir)); it is safe \
         to delete at any time — later runs simply start cold."
  in
  let action_pos =
    let action_conv =
      Arg.enum [ ("stats", `Stats); ("compact", `Compact); ("clear", `Clear) ]
    in
    Arg.(value & pos 0 action_conv `Stats & info [] ~docv:"ACTION")
  in
  let dir_opt =
    let doc = "Store directory (default: \\$XPILER_STORE_DIR)." in
    Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  Cmd.v info Term.(const store_action $ dir_opt $ action_pos)

(* ---- manual ------------------------------------------------------------------ *)

let manual platform query =
  List.iter
    (fun (e : Xpiler_manual.Corpus.entry) -> Printf.printf "%-40s %s\n" e.id e.body)
    (Xpiler_manual.Corpus.search platform query 5)

let manual_cmd =
  let info = Cmd.info "manual" ~doc:"Search a platform's programming manual (BM25)." in
  let platform_pos =
    Arg.(required & pos 0 (some platform_conv) None & info [] ~docv:"PLATFORM")
  in
  let query_pos = Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY") in
  Cmd.v info Term.(const manual $ platform_pos $ query_pos)

let () =
  let info = Cmd.info "xpiler" ~version:"1.0.0" ~doc:"Neural-symbolic tensor-program transcompiler." in
  exit
    (Cmd.eval
       (Cmd.group info
          [ translate_cmd; show_source_cmd; list_ops_cmd; lint_cmd; trace_cmd; metrics_cmd;
            bench_diff_cmd; store_cmd; manual_cmd ]))
