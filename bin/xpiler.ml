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

let no_prune_arg =
  let doc =
    "Disable bound-based pruning of intra-pass tuning candidates. Pruning skips only \
     candidates whose admissible cost bound cannot beat the best variant so far; the flag \
     exists for A/B measurement."
  in
  Arg.(value & flag & info [ "no-tune-prune" ] ~doc)

let max_escalation_arg =
  let doc =
    "Cap the recovery ladder at rung $(docv) (0 validate-only, 1 +hinted re-prompt, 2 +SMT \
     repair, 3 +symbolic fallback, 4 +skip-with-rollback). Any other value exits 2."
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
     calibrated paper rates); raise it to watch the recovery ladder work. A negative or \
     non-finite value exits 2."
  in
  Arg.(value & opt float 1.0 & info [ "fault-scale" ] ~docv:"F" ~doc)

let trace_arg =
  let doc =
    "Write a JSONL trace journal of the translation to $(docv) (replay it with `xpiler \
     trace`)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* A --shape value overrides some of the op's declared dims; the rest keep
   the op's first registered shape. Unknown or repeated dims, non-integers
   and values <= 0 are usage errors: one line on stderr, exit 2. *)
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
    let rec no_repeats = function
      | [] -> ()
      | (k, _) :: rest ->
        if List.mem_assoc k rest then reject "dim %S given twice" k;
        no_repeats rest
    in
    no_repeats overrides;
    List.map
      (fun (k, d) -> (k, Option.value ~default:d (List.assoc_opt k overrides)))
      defaults

(* A file the user asked for that cannot be written is a usage error: one
   line on stderr, exit 2, never an uncaught [Sys_error]. *)
let write_output ~what path text =
  try Out_channel.with_open_text path (fun oc -> output_string oc text)
  with Sys_error m ->
    Printf.eprintf "xpiler: cannot write %s: %s\n" what m;
    exit 2

(* Numeric flags follow the same contract: a value out of range is one line
   on stderr and exit 2, never silently clamped. *)
let check_fault_scale f =
  if not (Float.is_finite f && f >= 0.0) then begin
    Printf.eprintf "xpiler: bad --fault-scale %g: expected a finite number >= 0\n" f;
    exit 2
  end

let check_max_escalation n =
  if n < 0 || n > 4 then begin
    Printf.eprintf "xpiler: bad --max-escalation %d: expected a rung in 0..4\n" n;
    exit 2
  end

let find_op name =
  match Registry.find name with
  | Some op -> op
  | None ->
    Printf.eprintf "unknown operator %s; try `xpiler list-ops`\n" name;
    exit 2

(* ---- translate ------------------------------------------------------------ *)

let translate op_name shape src dst tune seed no_prune max_escalation no_rollback
    fault_scale trace =
  let op = find_op op_name in
  let shape = parse_shape op shape in
  check_max_escalation max_escalation;
  check_fault_scale fault_scale;
  let config =
    let base = if tune then Config.tuned else Config.default in
    let base = Config.with_seed base seed in
    let base =
      { base with
        Config.mcts = { base.Config.mcts with Xpiler_tuning.Mcts.prune = not no_prune };
        ladder =
          List.filter (fun r -> not (no_rollback && r = Config.Rollback)) base.Config.ladder
      }
    in
    let base = Config.with_max_escalation base max_escalation in
    let base = Config.with_fault_scale base fault_scale in
    if trace = None then base else Config.with_trace base Xpiler_obs.Tracer.Detail
  in
  Printf.printf "// source (%s):\n%s\n" (Platform.id_to_string src)
    (Idiom.source_text src op shape);
  let o = Xpiler.transcompile ~config ~src ~dst ~op ~shape () in
  Option.iter
    (fun path ->
      write_output ~what:"trace journal" path (Xpiler_obs.Journal.encode o.Xpiler.trace))
    trace;
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
      $ no_prune_arg $ max_escalation_arg $ no_rollback_arg
      $ fault_scale_arg $ trace_arg)

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
      write_output ~what:"Chrome trace" path (Xpiler_obs.Chrome.to_string events);
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

(* run a translation, then print the registry snapshot and the profiled
   span table; tuning is on by default so the cache/transposition meters
   have something to show *)
let metrics_run op_name shape src dst no_tune seed fault_scale openmetrics_out json_out =
  let op = find_op op_name in
  let shape = parse_shape op shape in
  check_fault_scale fault_scale;
  let config =
    let base = if no_tune then Config.default else Config.tuned in
    let base = Config.with_seed base seed in
    Config.with_fault_scale base fault_scale
  in
  Xpiler_obs.Metrics.reset ();
  Xpiler_obs.Prof.reset ();
  let o = Xpiler.transcompile ~config ~src ~dst ~op ~shape () in
  Printf.printf "// %s: %s -> %s, status: %s%s\n\n" op.Opdef.name (Platform.id_to_string src)
    (Platform.id_to_string dst)
    (Xpiler.status_to_string o.Xpiler.status)
    (if no_tune then "" else " (tuned)");
  let samples = Xpiler_obs.Metrics.snapshot () in
  let prof = Xpiler_obs.Prof.report () in
  print_string (Obs_report.render_metrics samples prof);
  (match openmetrics_out with
  | None -> ()
  | Some path ->
    write_output ~what:"OpenMetrics text" path (Xpiler_obs.Metrics.to_openmetrics samples);
    Printf.printf "wrote OpenMetrics text to %s\n" path);
  match json_out with
  | None -> ()
  | Some path ->
    let j =
      Xpiler_obs.Json.Obj
        [ ("metrics", Xpiler_obs.Metrics.to_json samples);
          ("profile", Xpiler_obs.Prof.to_json prof) ]
    in
    write_output ~what:"metrics JSON" path (Xpiler_obs.Json.to_string j ^ "\n");
    Printf.printf "wrote metrics JSON to %s\n" path

let metrics_cmd =
  let info =
    Cmd.info "metrics"
      ~doc:
        "Translate (with auto-tuning unless --no-tune) and print the metrics-registry \
         snapshot — cache hit rates, escalation rungs, SMT steps — plus \
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
      $ fault_scale_arg $ openmetrics_opt $ json_opt)

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
            manual_cmd ]))
