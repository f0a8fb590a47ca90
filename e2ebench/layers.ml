(* Per-layer attribution for the traced run, measured entirely from outside
   the library.

   Three kinds of number feed the layer metrics:
   - call counts and hit ratios: per-translation deltas of the metrics
     registry and of the public meters [Repairer.wall_totals],
     [Solver.work_totals] and [Pool.stats]; counts no meter records are
     derived from the outcome's ledger and modelled clock (design.json
     says which);
   - per-call self time: bench-side spans around a replay of each layer's
     public entry point on the case's own inputs (the source kernel, each
     intermediate kernel from applying [specs_applied] in order, the final
     kernel), with the time of replayed children subtracted;
   - layer wall: per-call self time x call count, summed over translations.
   Each translation is replayed right after it ran, outside its meter
   deltas and its wall, so the replay runs at the host speed the
   translation saw: this host's speed drifts by several per cent within
   seconds. The replayed calls only read the process-global caches (the
   translation filled them), except the tuner's: Mcts.search is replayed
   after the whole sweep, in sweep order, from a cleared transposition
   table and schedule DB. *)

open Xpiler_ir
open Xpiler_machine
open Xpiler_ops
open Xpiler_core
module Json = Xpiler_obs.Json
module Metrics = Xpiler_obs.Metrics
module Pass = Xpiler_passes.Pass
module Profile = Xpiler_neural.Profile
module Vclock = Xpiler_util.Vclock
module Repairer = Xpiler_repair.Repairer
module Solver = Xpiler_smt.Solver
module Mcts = Xpiler_tuning.Mcts

(* ---- spans: kept in memory, written once at the end ------------------------ *)

type span = { id : int; name : string; start : float; stop : float; parent : int; case : int }

let spans = ref []
let next_id = ref 0
let origin = Unix.gettimeofday ()

(* [timed ~parent ~case name f] runs [f id] inside span [id] and returns its
   result with the span's duration *)
let timed ?(parent = -1) ~case name f =
  let id = !next_id in
  incr next_id;
  let start = Unix.gettimeofday () in
  let r = f id in
  let stop = Unix.gettimeofday () in
  spans := { id; name; start; stop; parent; case } :: !spans;
  (r, stop -. start)

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [ ("id", Json.Int s.id);
                ("name", Json.Str s.name);
                ("start", Json.Float (s.start -. origin));
                ("end", Json.Float (s.stop -. origin));
                ("parent", Json.Int s.parent);
                ("case", Json.Int s.case) ]));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* ---- meters ------------------------------------------------------------------ *)

let key name labels =
  name ^ "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels) ^ "}"

let hit name labels = key name (("result", "hit") :: labels)
let miss name labels = key name (("result", "miss") :: labels)

let read_meters () =
  let tbl = Hashtbl.create 97 in
  List.iter
    (fun (s : Metrics.sample) ->
      match s.Metrics.value with
      | Metrics.Vcounter n -> Hashtbl.replace tbl (key s.Metrics.name s.Metrics.labels) (float_of_int n)
      | Metrics.Vgauge _ | Metrics.Vhist _ -> ())
    (Metrics.snapshot ());
  let r = Repairer.wall_totals () and w = Solver.work_totals () in
  List.iter
    (fun (k, v) -> Hashtbl.replace tbl k v)
    [ ("repair.calls", float_of_int r.Repairer.repairs);
      ("repair.wall", r.Repairer.wall_seconds);
      ("repair.localize", r.Repairer.localize_seconds);
      ("repair.solve", r.Repairer.solve_seconds);
      ("repair.test", r.Repairer.test_seconds);
      ("repair.score", r.Repairer.score_seconds);
      ("smt.fresh_steps", float_of_int w.Solver.fresh_steps);
      ("smt.fresh_wall", w.Solver.fresh_wall);
      ("pool.busy", (Xpiler_util.Pool.stats ()).Xpiler_util.Pool.busy_seconds) ];
  tbl

let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)

let diff before after =
  let d = Hashtbl.create 97 in
  Hashtbl.iter (fun k v -> Hashtbl.replace d k (v -. get before k)) after;
  d

(* ---- replay: per-call self time on the case's own inputs --------------------- *)

type per_call = {
  pass_s : float list;
  meta_s : float list;
  llm_self_s : float list;
  analysis_s : float list;
  interp : (float * float * float) list;  (** (s, minor words, steps) per pipeline kernel *)
  serial : (float * float * float) list;  (** the same for the serial reference kernel *)
  compile_s : float list;
  reference_self_s : float list;
  unit_test_trial_s : float list;
  checker_s : float list;
  costmodel_s : float list;
  codegen_s : float list;
  pre_tune : Kernel.t;  (** the kernel the tuner started from *)
}

let rec dedup = function
  | [] -> []
  | k :: rest -> k :: dedup (List.filter (fun k' -> not (Kernel.equal k k')) rest)

(* one timed execution on fresh inputs; the translation has just run the
   kernel, so its closure is cached (compiling it is the compile layer's
   time): (seconds, minor words, interpreter steps), [None] if it raises *)
let exec ~parent ~case (op : Opdef.t) shape k =
  let a = Unit_test.make_args (Xpiler_util.Rng.create 7) op shape in
  let w0 = Gc.minor_words () in
  match timed ~parent ~case "machine.interp" (fun _ -> Interp.run k a) with
  | exception _ -> None
  | stats, dt -> Some (dt, Gc.minor_words () -. w0, float_of_int stats.Interp.steps)

(* Cheap calls are timed [reps] times and the median kept: a single call can
   absorb a whole major GC slice, which the call count would multiply *)
let reps = 5

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let extents (c : Sweep.case) =
  List.map (fun (b : Opdef.buffer_spec) -> (b.buf_name, b.size c.shape)) c.op.Opdef.buffers

let replay ~parent (config : Config.t) (t : Sweep.translation) (o : Xpiler.outcome) =
  let c = t.Sweep.case in
  let case = c.Sweep.idx in
  let span1 name f = snd (timed ~parent ~case name (fun _ -> f ())) in
  let span name f = median (List.init reps (fun _ -> span1 name f)) in
  let target = Platform.of_id c.dst in
  let src_k = Idiom.source c.src c.op c.shape in
  (* the pipeline's fault profile for this case, as transcompile builds it *)
  let profile =
    List.fold_left Profile.scale
      (Profile.pass_level ~annotated:config.Config.annotate)
      [ sqrt (Profile.direction_difficulty ~src:c.src ~dst:c.dst);
        Xpiler.complexity_multiplier src_k;
        config.Config.fault_scale ]
  in
  let llm = Xpiler_neural.Llm.create ~seed:(c.idx + 1) () in
  (* the intermediate kernels: specs_applied replayed with Pass.apply *)
  let rec chain k acc = function
    | [] -> (k, List.rev acc)
    | spec :: rest -> (
      match Pass.apply ~platform:target spec k with
      | Ok k' ->
        let dt = span "passes" (fun () -> Pass.apply ~platform:target spec k) in
        chain k' ((spec, k, dt) :: acc) rest
      | Error _ -> (k, List.rev acc))
  in
  let pre_tune, steps = chain src_k [] o.Xpiler.specs_applied in
  let neural =
    List.map
      (fun (spec, k, pass_dt) ->
        let build () = Xpiler_neural.Meta_prompt.build ~target:c.dst spec k in
        let prompt = build () in
        let meta_dt = span "neural.meta_prompt" build in
        let llm_dt =
          span "neural.llm" (fun () -> Xpiler_neural.Llm.apply_pass llm ~profile ~target ~prompt spec k)
        in
        (meta_dt, Float.max 0.0 (llm_dt -. pass_dt)))
      steps
  in
  let final = Option.value ~default:pre_tune o.Xpiler.kernel in
  let serial = c.op.Opdef.serial c.shape in
  (* the kernels the pipeline validates and runs: every pass's output and
     the final kernel, never the source (unless no pass applied) *)
  let kernels =
    match
      List.filter
        (fun k -> not (Kernel.equal k src_k))
        (dedup (List.map (fun (_, k, _) -> k) steps @ [ pre_tune; final ]))
    with
    | [] -> [ final ]
    | ks -> ks
  in
  (* a tuned final kernel was never analyzed: analyzing it here could
     leave solver-memo entries that a later translation hits *)
  let analyzed =
    List.filter (fun k -> Kernel.equal k pre_tune || not (Kernel.equal k final)) kernels
  in
  let extents = extents c in
  let serial_run = Option.to_list (exec ~parent ~case c.op c.shape serial) in
  let solver_wall () = (Solver.work_totals ()).Solver.fresh_wall in
  { pass_s = List.map (fun (_, _, dt) -> dt) steps;
    meta_s = List.map fst neural;
    llm_self_s = List.map snd neural;
    analysis_s =
      List.map
        (fun k ->
          median
            (List.init reps (fun _ ->
                 let s0 = solver_wall () in
                 let dt = span1 "analysis" (fun () -> Xpiler_analysis.Analyzer.analyze ~extents k) in
                 (* the analyzer's fresh solver queries are smt's time *)
                 Float.max 0.0 (dt -. (solver_wall () -. s0)))))
        analyzed;
    interp = List.filter_map (exec ~parent ~case c.op c.shape) kernels;
    serial = serial_run;
    compile_s = List.map (fun k -> span "machine.compile" (fun () -> Compile.compile k)) kernels;
    reference_self_s =
      (let dt =
         span1 "ops.reference" (fun () ->
             Unit_test.reference_outputs (Xpiler_util.Rng.create 11) c.op c.shape)
       in
       List.map (fun (e, _, _) -> Float.max 0.0 (dt -. e)) serial_run);
    (* a trial's own work, without its interpreter run: fetch the seeded
       reference (a cache hit, as in the pipeline) and compare every output
       as a passing trial does. Timing the parts directly, rather than
       Unit_test.check minus the kernel's run, keeps this small share of
       the check from drowning in the interpreter's noise *)
    unit_test_trial_s =
      [ span "ops.unit_test" (fun () ->
            (* the seed of Unit_test.check's first trial *)
            let _, expected = Unit_test.reference_outputs_seeded ~seed:20250706 c.op c.shape in
            List.iter (fun (_, e) -> ignore (Tensor.allclose ~rtol:1e-3 ~atol:1e-4 e e)) expected) ];
    checker_s = [ span "machine.checker" (fun () -> Checker.compile target final) ];
    costmodel_s = [ span "machine.costmodel" (fun () -> Costmodel.throughput target final ~shapes:[]) ];
    codegen_s =
      [ span "lang.codegen" (fun () ->
            Xpiler_lang.Codegen.emit (Xpiler_lang.Dialect.of_platform c.dst) final) ];
    pre_tune
  }

(* one Mcts.search from the kernel the translation's tuner started from,
   children included *)
let replay_tuning (config : Config.t) (t : Sweep.translation) pc =
  let c = t.Sweep.case in
  let mcts = { config.Config.mcts with Mcts.prune = config.Config.tuning_prune } in
  let db = if config.Config.tuning_warm_start then Some Xpiler_tuning.Schedule_db.default else None in
  snd
    (timed ~case:c.Sweep.idx "tuning" (fun _ ->
         Mcts.search ~config:mcts ~clock:(Vclock.create ()) ~buffer_sizes:(extents c) ~jobs:1 ?db
           ~platform:(Platform.of_id c.dst) pc.pre_tune))

(* ---- attribution --------------------------------------------------------------- *)

type layer = { mutable calls : float; mutable wall : float }

let layer_names =
  [ "machine.interp"; "machine.compile"; "ops.reference"; "ops.unit_test"; "analysis"; "passes";
    "neural.meta_prompt"; "neural.llm"; "repair"; "smt"; "tuning"; "machine.costmodel";
    "machine.checker"; "lang.codegen" ]

type op_row = {
  mutable n : int;
  mutable wall_s : float;
  mutable interp_calls : float;
  mutable interp_wall : float;
}

let ratio num den = if den > 0.0 then num /. den else 0.0
let mean = function
  | [] -> None
  | xs -> Some (List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs))

(* Modelled seconds the pipeline and the repairer charge to the Unit_test
   stage per unit-test run (two for the repairer's two-trial check). No
   meter counts unit-test runs, so they are counted as the stage total over
   this charge; a translation whose total is not a whole multiple of it is
   counted in [unit_test_charge_mismatches], which --selftest requires to
   be 0, so a change to the modelled charge cannot pass for a change in
   the number of runs. *)
let unit_test_charge_s = 45.0

let run ~spans:spans_path (config : Config.t) cases =
  let obs = ref [] in
  let sweep_span = ref (-1) in
  let replay_s = ref 0.0 in
  let each (c : Sweep.case) f =
    let case = c.Sweep.idx in
    let before = read_meters () in
    let t, _ = timed ~parent:!sweep_span ~case "translate" (fun _ -> f ()) in
    let delta = diff before (read_meters ()) in
    let pc, dt =
      timed ~parent:!sweep_span ~case "replay" (fun parent ->
          match t.Sweep.outcome with Ok o -> Some (replay ~parent config t o) | Error _ -> None)
    in
    replay_s := !replay_s +. dt;
    obs := (t, delta, pc) :: !obs;
    t
  in
  let (_, summary), _ =
    timed ~case:(-1) "sweep" (fun id ->
        sweep_span := id;
        Sweep.run ~each config cases)
  in
  (* trace.overhead compares the sweep without its replays *)
  let summary = { summary with Sweep.sweep_s = summary.Sweep.sweep_s -. !replay_s } in
  let obs = List.rev !obs in
  let replays = List.map (fun (_, _, pc) -> pc) obs in
  (* against a cold tuner, in sweep order, so each Mcts.search sees the
     transposition table and schedule DB its translation saw *)
  Xpiler_tuning.Transposition.clear ();
  Xpiler_tuning.Schedule_db.clear Xpiler_tuning.Schedule_db.default;
  let tuning_incl =
    List.map
      (fun ((t : Sweep.translation), _, pc) ->
        match (pc, Sweep.accepted_kernel t) with
        | Some pc, Some _ when config.Config.tune -> Some (replay_tuning config t pc)
        | _ -> None)
      obs
  in
  (* a case without a sample of some call (no specs applied, no accepted
     kernel) takes the sweep-wide mean *)
  let per f =
    let samples = List.concat_map (function Some pc -> f pc | None -> []) replays in
    let global = Option.value ~default:0.0 (mean samples) in
    fun pc -> Option.value ~default:global (Option.bind pc (fun pc -> mean (f pc)))
  in
  let pass_s = per (fun p -> p.pass_s) and meta_s = per (fun p -> p.meta_s)
  and llm_s = per (fun p -> p.llm_self_s) and analysis_s = per (fun p -> p.analysis_s)
  and interp_s = per (fun p -> List.map (fun (s, _, _) -> s) p.interp)
  and words = per (fun p -> List.map (fun (_, w, _) -> w) p.interp)
  and steps = per (fun p -> List.map (fun (_, _, n) -> n) p.interp)
  and serial_s = per (fun p -> List.map (fun (s, _, _) -> s) p.serial)
  and serial_words = per (fun p -> List.map (fun (_, w, _) -> w) p.serial)
  and serial_steps = per (fun p -> List.map (fun (_, _, n) -> n) p.serial)
  and compile_s = per (fun p -> p.compile_s)
  and reference_s = per (fun p -> p.reference_self_s)
  and unit_test_s = per (fun p -> p.unit_test_trial_s)
  and checker_s = per (fun p -> p.checker_s) and costmodel_s = per (fun p -> p.costmodel_s)
  and codegen_s = per (fun p -> p.codegen_s) in
  let layers = List.map (fun n -> (n, { calls = 0.0; wall = 0.0 })) layer_names in
  let layer n = List.assoc n layers in
  let charge n ~calls ~wall =
    let l = layer n in
    l.calls <- l.calls +. calls;
    l.wall <- l.wall +. wall
  in
  let charge_per n calls per_call = charge n ~calls ~wall:(calls *. per_call) in
  (* meter deltas summed over the sweep, plus derived tallies *)
  let total = Hashtbl.create 97 in
  let add k v = Hashtbl.replace total k (get total k +. v) in
  let seen = Hashtbl.create 64 in
  let op_rows = Hashtbl.create 32 in
  let translate_wall = ref 0.0 in
  let charge_mismatches = ref 0 in
  List.iter2
    (fun ((t : Sweep.translation), delta, pc) tuning_incl ->
      let c = t.Sweep.case and d = get delta in
      Hashtbl.iter add delta;
      translate_wall := !translate_wall +. t.Sweep.wall_s;
      let hits = d (hit "xpiler_compile_cache_lookups_total" [])
      and misses = d (miss "xpiler_compile_cache_lookups_total" []) in
      let interp_calls = hits +. misses in
      let attempts = d (key "xpiler_llm_attempts_total" []) in
      let inapplicable = d (key "xpiler_passes_total" [ ("result", "inapplicable") ]) in
      let intra_compile = d (miss "xpiler_intra_memo_lookups_total" [ ("table", "compile") ])
      and intra_throughput = d (miss "xpiler_intra_memo_lookups_total" [ ("table", "throughput") ]) in
      (* the serial reference runs once per (op, shape, trial seed) per
         process, in the first translation of its (op, shape) *)
      let reference_runs =
        if Hashtbl.mem seen (c.op.Opdef.name, c.shape) then 0.0
        else begin
          Hashtbl.replace seen (c.op.Opdef.name, c.shape) ();
          float_of_int config.Config.unit_test_trials
        end
      in
      charge_per "ops.reference" reference_runs (reference_s pc);
      (match t.Sweep.outcome with
      | Error _ -> ()
      | Ok o ->
        let count p = float_of_int (List.length (List.filter p o.Xpiler.ledger)) in
        let first_try = count (fun e -> e.Ledger.result = Ledger.Applied)
        and reprompted = count (fun e -> e.Ledger.result = Ledger.Applied_reprompt)
        and symbolic_ok = count (fun e -> e.Ledger.result = Ledger.Symbolic_applied)
        (* the symbolic rung runs before every skip (the fallback is on) *)
        and symbolic_tries =
          count (fun e -> e.Ledger.rung = Ledger.Symbolic || e.Ledger.rung = Ledger.Skip)
        in
        let validations = attempts +. symbolic_tries in
        let charged = Vclock.stage_total o.Xpiler.clock Vclock.Unit_test /. unit_test_charge_s in
        if not (Float.is_integer charged) then incr charge_mismatches;
        let compile_error = match o.Xpiler.status with Xpiler.Compile_error _ -> true | _ -> false
        and computation_error =
          match o.Xpiler.status with Xpiler.Computation_error _ -> true | _ -> false
        in
        (* finalize re-runs a failing kernel once, uncharged, for its message *)
        let unit_tests = charged +. if computation_error then 1.0 else 0.0 in
        let ok = Xpiler.accepted o.Xpiler.status in
        (* without repair, every unit-test run is a validation the analyzer
           passed or a finalize check, which splits analyzer rejects from
           unit-test failures *)
        if o.Xpiler.repairs_attempted = 0 then begin
          let finalize =
            (if compile_error then 0.0 else 1.0)
            +. (if computation_error then 1.0 else 0.0)
            +. if ok && config.Config.tune then 1.0 else 0.0
          in
          add "analysis.rejected" (Float.max 0.0 (validations +. finalize -. unit_tests));
          add "analysis.judged" validations;
          add "unit_test.passed"
            (first_try +. reprompted +. symbolic_ok +. if ok then finalize else 0.0);
          add "unit_test.judged" unit_tests
        end;
        add "llm.useful" (first_try +. reprompted);
        add "repair.attempted" (float_of_int o.Xpiler.repairs_attempted);
        add "repair.succeeded" (float_of_int o.Xpiler.repairs_succeeded);
        add "codegen.bytes"
          (float_of_int (String.length (Option.value ~default:"" o.Xpiler.target_text)));
        charge_per "passes" (attempts +. inapplicable +. symbolic_tries) (pass_s pc);
        charge_per "neural.meta_prompt" (float_of_int (List.length o.Xpiler.ledger)) (meta_s pc);
        charge_per "neural.llm" (attempts +. inapplicable) (llm_s pc);
        charge_per "analysis" validations (analysis_s pc);
        (* without repair every interpreter run is a unit-test trial or a
           serial reference run; the repairer's tests are single trials, one
           per charge, and its localization and scoring runs are no trials *)
        let trials =
          if o.Xpiler.repairs_attempted = 0 then Float.max 0.0 (interp_calls -. reference_runs)
          else unit_tests
        in
        charge "ops.unit_test" ~calls:unit_tests ~wall:(trials *. unit_test_s pc);
        charge_per "machine.checker"
          (intra_compile +. 1.0 +. if compile_error then 1.0 else 0.0)
          (checker_s pc);
        charge_per "machine.costmodel"
          (intra_throughput +. if ok && not config.Config.tune then 1.0 else 0.0)
          (costmodel_s pc);
        charge_per "lang.codegen" 1.0 (codegen_s pc));
      (* reference runs execute the serial kernel, all others the
         pipeline's kernels *)
      let weighted serial_f f =
        (reference_runs *. serial_f pc) +. (Float.max 0.0 (interp_calls -. reference_runs) *. f pc)
      in
      charge "machine.interp" ~calls:interp_calls ~wall:(weighted serial_s interp_s);
      add "interp.words" (weighted serial_words words);
      add "interp.steps" (weighted serial_steps steps);
      charge_per "machine.compile" misses (compile_s pc);
      (* the speculative repairer tests its candidates as pool tasks, outside
         its test meter; their interpreter and unit-test runs are charged to
         those layers, so their time leaves repair's own. Untuned configs
         run nothing else on the pool; tuned ones also run the tuner there,
         so there repair keeps its candidate tests *)
      let candidate_tests = if config.Config.tune then 0.0 else d "pool.busy" in
      charge "repair" ~calls:(d "repair.calls")
        ~wall:
          (Float.max 0.0
             (d "repair.wall" -. d "repair.localize" -. d "repair.solve" -. d "repair.test"
            -. d "repair.score" -. candidate_tests));
      charge "smt" ~calls:0.0 ~wall:(d "smt.fresh_wall");
      (match tuning_incl with
      | Some incl ->
        let inner = (intra_compile *. checker_s pc) +. (intra_throughput *. costmodel_s pc) in
        charge "tuning" ~calls:1.0 ~wall:(Float.max 0.0 (incl -. inner))
      | None -> ());
      let row =
        match Hashtbl.find_opt op_rows c.op.Opdef.name with
        | Some r -> r
        | None ->
          let r = { n = 0; wall_s = 0.0; interp_calls = 0.0; interp_wall = 0.0 } in
          Hashtbl.replace op_rows c.op.Opdef.name r;
          r
      in
      row.n <- row.n + 1;
      row.wall_s <- row.wall_s +. t.Sweep.wall_s;
      row.interp_calls <- row.interp_calls +. interp_calls;
      row.interp_wall <- row.interp_wall +. weighted serial_s interp_s)
    obs tuning_incl;
  let get = get total in
  let hit_ratio name labels =
    let h = get (hit name labels) and m = get (miss name labels) in
    ratio h (h +. m)
  in
  let both_tables f = f [ ("table", "compile") ] +. f [ ("table", "throughput") ] in
  let calls n = (layer n).calls and self n = (layer n).wall in
  let metrics =
    [ ("machine.interp.calls", calls "machine.interp");
      ("machine.interp.distinct_kernels", calls "machine.compile");
      ("machine.interp.self_s", self "machine.interp");
      ("machine.interp.alloc_words", ratio (get "interp.words") (calls "machine.interp"));
      ("machine.interp.steps", ratio (get "interp.steps") (calls "machine.interp"));
      ("machine.compile.calls", calls "machine.compile");
      ("machine.compile.hit_ratio", hit_ratio "xpiler_compile_cache_lookups_total" []);
      ("machine.compile.self_s", self "machine.compile");
      ("ops.reference.calls", calls "ops.reference");
      ("ops.reference.self_s", self "ops.reference");
      ("ops.unit_test.calls", calls "ops.unit_test");
      ("ops.unit_test.self_s", self "ops.unit_test");
      ("ops.unit_test.pass_ratio", ratio (get "unit_test.passed") (get "unit_test.judged"));
      ("analysis.calls", calls "analysis");
      ("analysis.self_s", self "analysis");
      ("analysis.reject_ratio", ratio (get "analysis.rejected") (get "analysis.judged"));
      ("passes.calls", calls "passes");
      ("passes.self_s", self "passes");
      ("neural.meta_prompt.calls", calls "neural.meta_prompt");
      ("neural.meta_prompt.self_s", self "neural.meta_prompt");
      ("neural.llm.attempts", get (key "xpiler_llm_attempts_total" []));
      ("neural.llm.garbage", get (key "xpiler_llm_garbage_total" []));
      ("neural.llm.self_s", self "neural.llm");
      ("neural.llm.useful_ratio", ratio (get "llm.useful") (get (key "xpiler_llm_attempts_total" [])));
      ("core.ladder.validate", get (key "xpiler_escalations_total" [ ("rung", "validate") ]));
      ("core.ladder.reprompt", get (key "xpiler_escalations_total" [ ("rung", "reprompt") ]));
      ("core.ladder.smt", get (key "xpiler_escalations_total" [ ("rung", "smt-repair") ]));
      ("core.ladder.symbolic", get (key "xpiler_escalations_total" [ ("rung", "symbolic") ]));
      ("core.ladder.skip", get (key "xpiler_escalations_total" [ ("rung", "skip") ]));
      ("core.ladder.passes_applied", get (key "xpiler_passes_total" [ ("result", "applied") ]));
      ( "core.ladder.passes_inapplicable",
        get (key "xpiler_passes_total" [ ("result", "inapplicable") ]) );
      ("core.ladder.passes_skipped", get (key "xpiler_passes_total" [ ("result", "skipped") ]));
      ("repair.calls", calls "repair");
      ("repair.self_s", self "repair");
      ("repair.localize_s", get "repair.localize");
      ("repair.test_s", get "repair.test");
      ("repair.score_s", get "repair.score");
      ("repair.success_ratio", ratio (get "repair.succeeded") (get "repair.attempted"));
      ("repair.verdict_memo_hit_ratio", hit_ratio "xpiler_repair_verdict_memo_lookups_total" []);
      ( "smt.queries",
        List.fold_left
          (fun s v -> s +. get (key "xpiler_smt_queries_total" [ ("verdict", v) ]))
          0.0 [ "sat"; "unsat"; "timeout" ] );
      ("smt.fresh_steps", get "smt.fresh_steps");
      ("smt.self_s", self "smt");
      ("smt.memo_hit_ratio", hit_ratio "xpiler_smt_memo_lookups_total" []);
      ("tuning.self_s", self "tuning");
      ("tuning.reward_evals", get (key "xpiler_transposition_evals_total" []));
      ("tuning.transposition_hit_ratio", hit_ratio "xpiler_transposition_lookups_total" []);
      ( "tuning.intra_memo_hit_ratio",
        let h = both_tables (fun l -> get (hit "xpiler_intra_memo_lookups_total" l))
        and m = both_tables (fun l -> get (miss "xpiler_intra_memo_lookups_total" l)) in
        ratio h (h +. m) );
      ( "tuning.intra_memo_evictions",
        both_tables (fun l -> get (key "xpiler_intra_memo_evictions_total" l)) );
      ("tuning.schedule_db_hit_ratio", hit_ratio "xpiler_schedule_db_lookups_total" []);
      ("machine.costmodel.calls", calls "machine.costmodel");
      ("machine.costmodel.self_s", self "machine.costmodel");
      ("machine.checker.calls", calls "machine.checker");
      ("machine.checker.self_s", self "machine.checker");
      ("lang.codegen.calls", calls "lang.codegen");
      ("lang.codegen.self_s", self "lang.codegen");
      ("lang.codegen.bytes", ratio (get "codegen.bytes") (calls "lang.codegen"));
      ( "trace.coverage",
        ratio (List.fold_left (fun s n -> s +. self n) 0.0 layer_names) !translate_wall ) ]
  in
  write_spans spans_path;
  let op_rows =
    Hashtbl.fold (fun op r acc -> (op, r) :: acc) op_rows []
    |> List.sort (fun (_, a) (_, b) -> compare b.wall_s a.wall_s)
    |> List.map (fun (op, r) ->
           Json.Obj
             [ ("op", Json.Str op);
               ("translations", Json.Int r.n);
               ("wall_s", Json.Float r.wall_s);
               ("interp_calls", Json.Int (int_of_float r.interp_calls));
               ("interp_s", Json.Float r.interp_wall) ])
  in
  Sweep.summary_json summary
  @ [ ("layers", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics));
      ("unit_test_charge_mismatches", Json.Int !charge_mismatches);
      ("op_rows", Json.List op_rows) ]
