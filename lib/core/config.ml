type escalation = {
  reprompt_parallelism : int;
  reprompt_memory : int;
  reprompt_instruction : int;
  reprompt_damping : float;
  backoff : float;
  symbolic_fallback : bool;
}

let no_escalation =
  { reprompt_parallelism = 0;
    reprompt_memory = 0;
    reprompt_instruction = 0;
    reprompt_damping = 1.0;
    backoff = 1.0;
    symbolic_fallback = false
  }

(* parallelism errors are the most systematic (a foreign-platform habit the
   hint rarely dislodges), so they get the smallest re-prompt budget *)
let default_escalation =
  { reprompt_parallelism = 1;
    reprompt_memory = 2;
    reprompt_instruction = 2;
    reprompt_damping = 0.35;
    backoff = 1.6;
    symbolic_fallback = true
  }

type t = {
  name : string;
  seed : int;
  annotate : bool;
  use_smt : bool;
  self_debugging : bool;
  static_analysis : bool;
  escalation : escalation;
  rollback : bool;
  fault_scale : float;
  tune : bool;
  mcts : Xpiler_tuning.Mcts.config;
  tuning_prune : bool;
  tuning_warm_start : bool;
  unit_test_trials : int;
  jobs : int;
  trace_level : Xpiler_obs.Tracer.level;
  trace_sink : string option;
  profile : bool;
  native_backend : bool;
  store_dir : string option;
}

let default =
  { name = "qimeng-xpiler";
    seed = 20250706;
    annotate = true;
    use_smt = true;
    self_debugging = false;
    static_analysis = true;
    escalation = default_escalation;
    rollback = true;
    fault_scale = 1.0;
    tune = false;
    mcts = { Xpiler_tuning.Mcts.default_config with simulations = 48; max_depth = 6 };
    tuning_prune = true;
    tuning_warm_start = true;
    unit_test_trials = 2;
    jobs = 1;
    trace_level = Xpiler_obs.Tracer.Off;
    trace_sink = None;
    profile = false;
    native_backend = false;
    store_dir = None
  }

(* the pre-resilience pipeline: SMT repair only, a Gave_up commits the broken
   kernel (no rollback, no re-prompting, no symbolic fallback) — the bench
   baseline for the escalation ladder *)
let seed_pipeline =
  { default with
    name = "qimeng-xpiler-seed";
    escalation = no_escalation;
    rollback = false
  }

let without_smt =
  { seed_pipeline with name = "qimeng-xpiler-wo-smt"; use_smt = false }

let without_analysis =
  { default with name = "qimeng-xpiler-wo-analysis"; static_analysis = false }

let without_smt_self_debug =
  { seed_pipeline with
    name = "qimeng-xpiler-wo-smt+self-debug";
    use_smt = false;
    self_debugging = true
  }

let tuned = { default with name = "qimeng-xpiler-tuned"; tune = true }

let with_seed t seed = { t with seed }
let with_trace ?sink t level = { t with trace_level = level; trace_sink = sink }
let with_fault_scale t fault_scale = { t with fault_scale = Float.max 0.0 fault_scale }

(* CLI mapping: 0 = validate only, 1 = +re-prompt, 2 = +SMT repair,
   3 = +symbolic fallback, 4 = +skip-with-rollback (the full ladder) *)
let with_max_escalation t rung =
  let rung = max 0 (min 4 rung) in
  let esc = if rung >= 1 then default_escalation else no_escalation in
  { t with
    escalation = { esc with symbolic_fallback = rung >= 3 };
    use_smt = t.use_smt && rung >= 2;
    rollback = t.rollback && rung >= 4
  }
