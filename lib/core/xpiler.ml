open Xpiler_ir
open Xpiler_machine
open Xpiler_ops
open Xpiler_neural
module Pass = Xpiler_passes.Pass
module Vclock = Xpiler_util.Vclock
module Rng = Xpiler_util.Rng
module Obs = Xpiler_obs

type status = Success | Degraded | Compile_error of string | Computation_error of string

type outcome = {
  status : status;
  kernel : Kernel.t option;
  target_text : string option;
  specs_applied : Pass.spec list;
  skipped_passes : Pass.spec list;
  faults_seen : Fault.injected list;
  residual_faults : Fault.injected list;
  repairs_attempted : int;
  repairs_succeeded : int;
  ledger : Ledger.entry list;
  clock : Vclock.t;
  throughput : float option;
  trace : Obs.Event.t list;
}

let status_to_string = function
  | Success -> "success"
  | Degraded -> "degraded"
  | Compile_error m -> "compile error: " ^ m
  | Computation_error m -> "computation error: " ^ m

(* label-safe status class: the error message is unbounded-cardinality, the
   class is not *)
let status_class = function
  | Success -> "success"
  | Degraded -> "degraded"
  | Compile_error _ -> "compile-error"
  | Computation_error _ -> "computation-error"

(* Stable registry metrics: everything below is counted on the master domain
   and is a pure function of workload, configuration and seed. Escalation
   counters are pre-registered at zero for every rung so `xpiler metrics`
   always shows the full ladder. *)
let m_escalation =
  let mk rung =
    ( rung,
      Obs.Metrics.counter ~help:"passes whose escalation ended at this rung"
        ~labels:[ ("rung", Ledger.rung_name rung) ] "xpiler_escalations_total" )
  in
  List.map mk [ Ledger.Validate; Ledger.Reprompt; Ledger.Smt; Ledger.Symbolic; Ledger.Skip ]

let m_escalation_for rung = List.assq rung m_escalation

let m_pass =
  let mk result =
    ( result,
      Obs.Metrics.counter ~help:"pass applications by outcome" ~labels:[ ("result", result) ]
        ~trace:("pass." ^ result) "xpiler_passes_total" )
  in
  List.map mk [ "applied"; "inapplicable"; "broken"; "skipped" ]

let m_pass_for result = List.assoc result m_pass

let m_translation status =
  Obs.Metrics.counter ~help:"translations by final status" ~labels:[ ("status", status) ]
    "xpiler_translations_total"

let m_translations =
  List.map (fun s -> (s, m_translation s)) [ "success"; "degraded"; "compile-error"; "computation-error" ]

(* MCTS best kernels the final unit test rejects (the untuned kernel is
   kept). Registry only, with no [~trace] mirror: the fallback is not a
   journal event. *)
let m_tuning_rejected =
  Obs.Metrics.counter ~help:"tuned kernels the final unit test rejected (untuned kernel kept)"
    "xpiler_tuning_rejected_total"

let accepted = function Success | Degraded -> true | Compile_error _ | Computation_error _ -> false

let strip_annots (k : Kernel.t) =
  let rec go block =
    List.concat_map
      (fun s ->
        match s with
        | Stmt.Annot _ -> []
        | Stmt.For r -> [ Stmt.For { r with body = go r.body } ]
        | Stmt.If r -> [ Stmt.If { r with then_ = go r.then_; else_ = go r.else_ } ]
        | s -> [ s ])
      block
  in
  Kernel.with_body k (go k.Kernel.body)

(* program size and data-dependent control flow inflate LLM fault rates —
   the paper's explanation for the Deformable Attention failure case *)
let complexity_multiplier (k : Kernel.t) =
  let stmts = Stmt.count_stmts k.Kernel.body in
  let tainted = Hashtbl.create 8 in
  let expr_tainted e =
    Expr.buffers_read e <> [] || List.exists (Hashtbl.mem tainted) (Expr.free_vars e)
  in
  let dyn_ifs = ref 0 in
  Stmt.iter
    (fun s ->
      match s with
      | Stmt.Let { var; value } | Stmt.Assign { var; value } ->
        if expr_tainted value then Hashtbl.replace tainted var ()
      | Stmt.If r -> if expr_tainted r.cond then incr dyn_ifs
      | _ -> ())
    k.Kernel.body;
  let size = Float.max 0.8 (Float.min 3.0 (sqrt (float_of_int stmts /. 12.0))) in
  let control = 1.0 +. (1.0 *. Float.min 4.0 (float_of_int !dyn_ifs)) in
  size *. control

(* hot-loop accumulators are kept in reverse and finalized once in
   [finish] — appending with [@] per pass made the loop quadratic *)
type state = {
  mutable kernel : Kernel.t;
  mutable specs_rev : Pass.spec list;
  mutable skipped_rev : Pass.spec list;
  mutable faults_seen_rev : Fault.injected list;
  mutable active_faults : Fault.injected list;
  mutable repairs_attempted : int;
  mutable repairs_succeeded : int;
  mutable ledger_rev : Ledger.entry list;
}

type pass_result = Applied | Inapplicable of string | Broken | Skipped

(* [Config.Reprompt]'s policy. The hint names the diagnosed fault classes and
   damps exactly their rates, by [reprompt_damping ** i] on retry [i], which
   also charges [45 * reprompt_backoff ** i] modelled seconds of LLM latency.
   Parallelism errors are the most systematic (a foreign-platform habit the
   hint rarely dislodges), so they get the smallest budget. *)
let reprompt_budget = function Fault.Parallelism -> 1 | Fault.Memory | Fault.Instruction -> 2
let reprompt_damping = 0.35
let reprompt_backoff = 1.6

let case_seed (config : Config.t) src dst (op : Opdef.t) shape =
  Hashtbl.hash
    ( config.Config.seed,
      Platform.id_to_string src,
      Platform.id_to_string dst,
      op.Opdef.name,
      shape )

let shape_to_string shape =
  String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) shape)

(* the translation proper, under [transcompile]'s tracer and error boundary *)
let translate ~config ~clock ~src ~dst ~op ~shape =
  let buffer_sizes =
    List.map (fun (b : Opdef.buffer_spec) -> (b.buf_name, b.size shape)) op.Opdef.buffers
  in
  let llm = Llm.create ~seed:(case_seed config src dst op shape) ~clock () in
  let retry_rng = Rng.create (case_seed config src dst op shape + 17) in
  let target = Platform.of_id dst in
  let src_kernel = Idiom.source src op shape in
  (* program annotation (Algorithm 1): one LLM pass + BM25 retrieval *)
  let annotated_kernel =
    if config.Config.annotate then
      Obs.Trace.span ~cat:"phase" "annotate" (fun () ->
          Vclock.charge clock Vclock.Annotation
            (150.0 +. (5.0 *. float_of_int (Stmt.count_stmts src_kernel.Kernel.body)));
          Annotate.annotate ~target:dst src_kernel)
    else src_kernel
  in
  let base_profile =
    Profile.pass_level ~annotated:config.Config.annotate
    |> (fun p -> Profile.scale p (sqrt (Profile.direction_difficulty ~src ~dst)))
    |> (fun p -> Profile.scale p (complexity_multiplier src_kernel))
    |> fun p -> Profile.scale p config.Config.fault_scale
  in
  let st =
    { kernel = strip_annots annotated_kernel;
      specs_rev = [];
      skipped_rev = [];
      faults_seen_rev = [];
      active_faults = [];
      repairs_attempted = 0;
      repairs_succeeded = 0;
      ledger_rev = []
    }
  in
  let compile_ok k = Checker.compile target k = Ok () in
  let unit_ok k =
    Vclock.charge clock Vclock.Unit_test 45.0;
    Unit_test.check ~trials:config.Config.unit_test_trials op shape k = Unit_test.Pass
  in
  (* per-pass validation: a static pre-validation pass first (a diagnosed
     program never reaches the interpreter, and its findings seed the
     repairer's localization), then the unit test (the paper's flow).
     Platform compilation is checked once on the final program, since
     intermediate states legitimately mix source and target features *)
  let validate k =
    let findings =
      if config.Config.static_analysis then begin
        Vclock.charge clock Vclock.Static_analysis
          (2.0 +. (0.05 *. float_of_int (Stmt.count_stmts k.Kernel.body)));
        Xpiler_analysis.Analyzer.errors (Xpiler_analysis.Analyzer.analyze ~extents:buffer_sizes k)
      end
      else []
    in
    (* short-circuit: no interpreter run for a statically-diagnosed program —
       reading the report is orders of magnitude cheaper *)
    if findings <> [] then Error findings else if unit_ok k then Ok () else Error []
  in
  (* one LLM-assisted pass with validation; a failed validation climbs
     [config.ladder] (see [Config.rung]) *)
  let run_pass_untraced spec =
    let checkpoint = st.kernel in
    let t0 = Vclock.elapsed clock in
    let attempts = ref 0 in
    let fault_classes = ref [] in
    let rung = ref Ledger.Validate in
    let reach r = if Ledger.rung_index r > Ledger.rung_index !rung then rung := r in
    let note_faults faults =
      st.faults_seen_rev <- List.rev_append faults st.faults_seen_rev;
      List.iter
        (fun (f : Fault.injected) ->
          if not (List.mem f.Fault.category !fault_classes) then
            fault_classes := !fault_classes @ [ f.Fault.category ])
        faults
    in
    let record result pass_result =
      let entry =
        { Ledger.spec;
          attempts = !attempts;
          rung = !rung;
          fault_classes = !fault_classes;
          time_charged = Vclock.elapsed clock -. t0;
          result
        }
      in
      st.ledger_rev <- entry :: st.ledger_rev;
      Obs.Metrics.inc (m_escalation_for !rung);
      Obs.Trace.instant ~attrs:(Ledger.trace_attrs entry) "pass.ledger";
      pass_result
    in
    let apply_ok k result =
      st.kernel <- k;
      st.specs_rev <- spec :: st.specs_rev;
      st.active_faults <- [];
      record result Applied
    in
    let prompt = Meta_prompt.build ~target:dst spec checkpoint in
    (* one LLM call on the checkpoint: a valid kernel is applied as [result],
       an invalid one goes to [on_fail] with its faults and findings *)
    let attempt ~profile ~prompt result on_fail =
      match Llm.apply_pass llm ~profile ~target ~prompt spec checkpoint with
      | Error m -> record (Ledger.Not_applicable m) (Inapplicable m)
      | Ok (k, faults) -> (
        incr attempts;
        note_faults faults;
        match validate k with
        | Ok () -> apply_ok k result
        | Error findings -> on_fail k faults findings)
    in
    (* [k] failed validation with [findings] and carries the [live] faults *)
    let rec climb k live findings = function
      | [] ->
        (* off the end of the ladder: the broken kernel enters the state *)
        st.kernel <- k;
        st.specs_rev <- spec :: st.specs_rev;
        st.active_faults <- st.active_faults @ live;
        record Ledger.Committed_broken Broken
      | Config.Reprompt :: rest -> reprompt k live findings rest 1
      | Config.Self_debug :: rest ->
        (* no hint, so most retries would reproduce the same faulty output *)
        if Rng.bernoulli retry_rng 0.85 then climb k live findings rest
        else
          attempt ~profile:base_profile ~prompt Ledger.Applied_reprompt (fun k faults findings ->
              climb k (live @ faults) findings rest)
      | Config.Smt_repair :: rest -> (
        reach Ledger.Smt;
        st.repairs_attempted <- st.repairs_attempted + 1;
        match
          Xpiler_repair.Repairer.repair ~static:findings ~clock ~platform:target ~op ~shape k
        with
        | Xpiler_repair.Repairer.Repaired { kernel; _ } ->
          st.repairs_succeeded <- st.repairs_succeeded + 1;
          apply_ok kernel Ledger.Repaired
        | Xpiler_repair.Repairer.Gave_up _ -> climb k live findings rest)
      | Config.Symbolic :: rest -> (
        reach Ledger.Symbolic;
        Obs.Trace.count "escalate.symbolic";
        match Pass.apply ~platform:target spec checkpoint with
        | Error _ -> climb k live findings rest
        | Ok k_sym -> (
          Vclock.charge clock Vclock.Symbolic_fallback
            (20.0 +. (2.0 *. float_of_int (Stmt.count_stmts k_sym.Kernel.body)));
          match validate k_sym with
          | Ok () -> apply_ok k_sym Ledger.Symbolic_applied
          | Error _ -> climb k live findings rest))
      | Config.Rollback :: _ ->
        (* [st.kernel] was last assigned a validated kernel, so leaving it
           untouched IS the rollback *)
        reach Ledger.Skip;
        Obs.Trace.count "escalate.skip";
        st.skipped_rev <- spec :: st.skipped_rev;
        record Ledger.Skipped Skipped
    (* retry [i] waits out a backoff on top of the call itself *)
    and reprompt k live findings rest i =
      let budget = List.fold_left (fun m c -> max m (reprompt_budget c)) 0 !fault_classes in
      if i > budget then climb k live findings rest
      else begin
        reach Ledger.Reprompt;
        Obs.Trace.count "escalate.reprompt";
        Vclock.charge clock Vclock.Llm_transform (45.0 *. (reprompt_backoff ** float_of_int i));
        let hinted = Meta_prompt.with_hints ~categories:!fault_classes prompt in
        let damped =
          Profile.damp base_profile !fault_classes (reprompt_damping ** float_of_int i)
        in
        attempt ~profile:damped ~prompt:hinted Ledger.Applied_reprompt (fun k faults findings ->
            reprompt k faults findings rest (i + 1))
      end
    in
    attempt ~profile:base_profile ~prompt Ledger.Applied (fun k faults findings ->
        climb k faults findings config.Config.ladder)
  in
  let run_pass spec =
    (* the profiler keys pass spans by family: [describe] is unbounded *)
    Obs.Trace.span ~cat:"pass" ~prof:("pass." ^ Pass.name spec) (Pass.describe spec)
    @@ fun () ->
    let r = run_pass_untraced spec in
    let cls =
      match r with
      | Applied -> "applied"
      | Inapplicable _ -> "inapplicable"
      | Broken -> "broken"
      | Skipped -> "skipped"
    in
    Obs.Metrics.inc (m_pass_for cls);
    r
  in
  (* phase 1: sequentialize when the source is parallel *)
  let recovery_ok =
    if Stmt.axes_used st.kernel.Kernel.body <> [] then run_pass Pass.Loop_recovery
    else Applied
  in
  let finish () =
    Obs.Trace.span ~cat:"phase" "finalize"
    @@ fun () ->
    let k = st.kernel in
    let status =
      if not (compile_ok k) then
        Compile_error
          (match Checker.compile target k with
          | Error (e :: _) -> Checker.error_to_string e
          | _ -> "unknown")
      else if not (unit_ok k) then
        Computation_error
          (match Unit_test.check ~trials:1 op shape k with
          | Unit_test.Fail m -> m
          | Unit_test.Pass -> "flaky")
      else if st.skipped_rev <> [] then Degraded
      else Success
    in
    (* hierarchical auto-tuning on accepted translations (a degraded kernel
       still computes correctly, so it is tuned like any other) *)
    let k, throughput =
      if accepted status && config.Config.tune then begin
        let result =
          Xpiler_tuning.Mcts.search ~config:config.Config.mcts ~clock ~buffer_sizes
            ~platform:target k
        in
        let tuned = result.Xpiler_tuning.Mcts.best_kernel in
        if unit_ok tuned then (tuned, Some result.Xpiler_tuning.Mcts.best_reward)
        else begin
          Obs.Metrics.inc m_tuning_rejected;
          (k, Some (Costmodel.throughput target k ~shapes:[]))
        end
      end
      else if accepted status then (k, Some (Costmodel.throughput target k ~shapes:[]))
      else (k, None)
    in
    { status;
      kernel = Some k;
      target_text = Some (Xpiler_lang.Codegen.emit (Xpiler_lang.Dialect.of_platform dst) k);
      specs_applied = List.rev st.specs_rev;
      skipped_passes = List.rev st.skipped_rev;
      faults_seen = List.rev st.faults_seen_rev;
      residual_faults = st.active_faults;
      repairs_attempted = st.repairs_attempted;
      repairs_succeeded = st.repairs_succeeded;
      ledger = List.rev st.ledger_rev;
      clock;
      throughput;
      trace = []
    }
  in
  match recovery_ok with
  (* a skipped recovery leaves the (validated) source kernel in place: no
     phase below can run on a still-parallel program, so finalize — the
     outcome is Degraded or a compile error, never a committed-broken state *)
  | Broken | Inapplicable _ | Skipped -> finish ()
  | Applied -> (
    (* phase 1.5: canonicalize split elementwise loops back into flat loops *)
    let rec normalize () =
      match st.kernel.Kernel.body with
      | [ Stmt.For { var; kind = Stmt.Serial;
                     body = [ Stmt.For { kind = Stmt.Serial; body = [ Stmt.Store _ ]; _ } ]; _ } ]
        -> (
        match run_pass (Pass.Loop_fuse { var }) with
        | Applied -> normalize ()
        | Inapplicable _ | Broken | Skipped -> ())
      | _ -> ()
    in
    normalize ();
    (* phase 1.75: strip source-platform specialization the target lacks —
       restore loops from foreign intrinsics, move foreign memory spaces to
       plain local storage *)
    let despecialize () =
      (* source intrinsics are restored to loops even when the target has an
         equivalent: operand staging differs per platform, so the target
         pipeline re-tensorizes from scratch *)
      let detens =
        if Stmt.intrinsics st.kernel.Kernel.body <> [] then [ Pass.Detensorize ] else []
      in
      let rec run = function
        | [] -> Applied
        | spec :: rest -> (
          match run_pass spec with
          (* a skipped fix rolls back and the plan continues around it *)
          | Applied | Skipped -> run rest
          | (Inapplicable _ | Broken) as r -> r)
      in
      match run detens with
      | (Inapplicable _ | Broken) as r -> r
      | Skipped -> assert false (* [run] never returns Skipped *)
      | Applied ->
        (* drop source-side staging (the target pipeline re-stages), falling
           back to a local-scratch rescope for genuine temporaries *)
        let fixes =
          Stmt.allocs st.kernel.Kernel.body
          |> List.filter_map (fun (buf, scope, _, _) ->
                 if Scope.is_on_chip scope || not (List.mem scope target.Platform.scopes)
                 then
                   Some
                     (match Xpiler_passes.Memory_pass.decache ~buf st.kernel with
                     | Ok _ -> Pass.Decache { buf }
                     | Error _ -> Pass.Rescope { buf; scope = Scope.Local })
                 else None)
        in
        run fixes
    in
    if despecialize () <> Applied then finish ()
    else if st.active_faults <> [] then finish ()
    else begin
      (* phase 2: retarget via the candidate pass pipelines *)
      let base = st.kernel and base_specs = st.specs_rev and base_skipped = st.skipped_rev in
      let pipelines = Idiom.pipelines_for dst op shape st.kernel in
      let rec try_pipelines = function
        | [] -> finish ()
        | pipeline :: rest -> (
          st.kernel <- base;
          st.specs_rev <- base_specs;
          st.skipped_rev <- base_skipped;
          st.active_faults <- [];
          let rec run = function
            | [] -> finish ()
            | spec :: specs -> (
              match run_pass spec with
              | Applied -> run specs
              (* re-plan around the skipped pass: the rest of the pipeline
                 still runs against the rolled-back checkpoint *)
              | Skipped -> run specs
              | Inapplicable _ -> try_pipelines rest
              | Broken -> finish ())
          in
          run pipeline)
      in
      try_pipelines pipelines
    end)

let transcompile ?(config = Config.default) ~src ~dst ~op ~shape () =
  let clock = Vclock.create () in
  (* tracing: a tracer of our own when the config asks for one, else reuse
     an ambient tracer a caller (e.g. the bench harness) scoped; either way
     the Vclock observer keeps span timestamps and stage totals in lock-step
     (single source of timing truth) *)
  let owned =
    match config.Config.trace_level with
    | Obs.Tracer.Off -> None
    | Obs.Tracer.Detail -> Some (Obs.Tracer.create ())
  in
  (match owned with Some t -> Obs.Trace.with_tracer t | None -> fun f -> f ())
  @@ fun () ->
  let tracer = Obs.Trace.current () in
  Option.iter
    (fun t ->
      Vclock.set_observer clock (fun stage s ->
          Obs.Tracer.stage_charge t (Vclock.stage_name stage) s))
    tracer;
  let root_span =
    Option.map
      (fun t ->
        Obs.Tracer.span_begin t ~cat:"translate"
          ~attrs:
            [ ("op", op.Opdef.name);
              ("src", Platform.id_to_string src);
              ("dst", Platform.id_to_string dst);
              ("shape", shape_to_string shape);
              ("seed", string_of_int config.Config.seed);
              ("config", config.Config.name) ]
          ("translate:" ^ op.Opdef.name))
      tracer
  in
  (* seal the trace *)
  let finish_trace outcome =
    Obs.Metrics.inc (List.assoc (status_class outcome.status) m_translations);
    Option.iter
      (fun t ->
        Obs.Tracer.instant t
          ~attrs:[ ("status", status_to_string outcome.status) ]
          "translate.status";
        Option.iter (Obs.Tracer.span_end t) root_span;
        Vclock.clear_observer clock)
      tracer;
    match owned with
    | Some t ->
      let events = Obs.Tracer.events t in
      (* like an unopenable store, an unwritable sink is a warning: the
         outcome (and its trace) is still returned *)
      (match config.Config.trace_sink with
      | Some path -> (
        try Obs.Journal.write_file path events
        with Sys_error m -> Printf.eprintf "warning: trace journal not written: %s\n%!" m)
      | None -> ());
      { outcome with trace = events }
    | None -> outcome
  in
  let failed status =
    { status;
      kernel = None;
      target_text = None;
      specs_applied = [];
      skipped_passes = [];
      faults_seen = [];
      residual_faults = [];
      repairs_attempted = 0;
      repairs_succeeded = 0;
      ledger = [];
      clock;
      throughput = None;
      trace = []
    }
  in
  finish_trace
  @@
  (* the one error boundary: whatever a callee raises becomes a typed
     status naming the exception, so [transcompile] stays total. A shape
     the oracle cannot allocate fails before any pass runs. *)
  match
    match Unit_test.oversized op shape with
    | Some m -> failed (Computation_error m)
    | None -> translate ~config ~clock ~src ~dst ~op ~shape
  with
  | outcome -> outcome
  | exception ((Out_of_memory | Sys.Break) as e) -> raise e
  | exception e -> failed (Compile_error ("internal error: " ^ Printexc.to_string e))
