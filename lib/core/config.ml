type rung = Reprompt | Self_debug | Smt_repair | Symbolic | Rollback

let rung_index = function
  | Reprompt -> 1
  | Self_debug | Smt_repair -> 2
  | Symbolic -> 3
  | Rollback -> 4

type t = {
  name : string;
  seed : int;
  annotate : bool;
  static_analysis : bool;
  ladder : rung list;
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
    static_analysis = true;
    ladder = [ Reprompt; Smt_repair; Symbolic; Rollback ];
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

let seed_pipeline = { default with name = "qimeng-xpiler-seed"; ladder = [ Smt_repair ] }
let without_smt = { default with name = "qimeng-xpiler-wo-smt"; ladder = [] }

let without_analysis =
  { default with name = "qimeng-xpiler-wo-analysis"; static_analysis = false }

let without_smt_self_debug =
  { default with name = "qimeng-xpiler-wo-smt+self-debug"; ladder = [ Self_debug ] }

let tuned = { default with name = "qimeng-xpiler-tuned"; tune = true }

let with_seed t seed = { t with seed }
let with_trace ?sink t level = { t with trace_level = level; trace_sink = sink }
let with_fault_scale t fault_scale = { t with fault_scale = Float.max 0.0 fault_scale }

let with_max_escalation t n = { t with ladder = List.filter (fun r -> rung_index r <= n) t.ladder }
