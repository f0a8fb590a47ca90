(* Observability-layer guarantees: the typed metrics registry, the wall-clock
   profiler and the bench-history watchdog. The two load-bearing invariants —
   the reasons this layer is safe to leave on in production — are (1) the
   stable-only registry snapshot is byte-identical across --jobs values, and
   (2) the profiler stream is fully segregated from the tracer, so golden
   journals do not change when profiling is enabled. *)

open Xpiler_machine
open Xpiler_ops
open Xpiler_tuning
open Xpiler_core
module Pool = Xpiler_util.Pool
module Json = Xpiler_obs.Json
module Event = Xpiler_obs.Event
module Tracer = Xpiler_obs.Tracer
module Journal = Xpiler_obs.Journal
module Trace = Xpiler_obs.Trace
module Metrics = Xpiler_obs.Metrics
module Prof = Xpiler_obs.Prof
module BH = Xpiler_obs.Bench_history

let gemm = Registry.find_exn "gemm"
let gemm_shape = [ ("m", 32); ("n", 64); ("k", 64) ]
let serial () = gemm.Opdef.serial gemm_shape

let buffer_sizes =
  List.map (fun (b : Opdef.buffer_spec) -> (b.buf_name, b.size gemm_shape)) gemm.Opdef.buffers

let find_sample name labels samples =
  List.find_opt
    (fun (s : Metrics.sample) -> s.Metrics.name = name && s.Metrics.labels = labels)
    samples

let counter_value name labels samples =
  match find_sample name labels samples with
  | Some { Metrics.value = Metrics.Vcounter n; _ } -> Some n
  | _ -> None

let gauge_value name labels samples =
  match find_sample name labels samples with
  | Some { Metrics.value = Metrics.Vgauge v; _ } -> Some v
  | _ -> None

let hist_value name labels samples =
  match find_sample name labels samples with
  | Some { Metrics.value = Metrics.Vhist h; _ } -> Some h
  | _ -> None

(* ---- registry basics ---------------------------------------------------- *)

let test_counter_gauge_histogram () =
  let c = Metrics.counter ~help:"test counter" "testm_basic_total" in
  let g = Metrics.gauge "testm_basic_gauge" in
  let h = Metrics.histogram ~bounds:[| 1.0; 2.0; 5.0 |] "testm_basic_hist" in
  Metrics.inc c;
  Metrics.inc ~n:4 c;
  Metrics.set g 2.5;
  Metrics.add g 1.25;
  List.iter (Metrics.observe h) [ 0.5; 1.5; 10.0 ];
  let s = Metrics.snapshot () in
  Alcotest.(check (option int)) "counter total" (Some 5) (counter_value "testm_basic_total" [] s);
  Alcotest.(check (option (float 1e-9))) "gauge value" (Some 3.75)
    (gauge_value "testm_basic_gauge" [] s);
  (match hist_value "testm_basic_hist" [] s with
  | None -> Alcotest.fail "histogram sample missing"
  | Some h ->
    Alcotest.(check int) "observations" 3 h.Metrics.count;
    Alcotest.(check (array int)) "bucket counts" [| 1; 1; 0; 1 |] h.Metrics.counts;
    Alcotest.(check (float 1e-9)) "sum" 12.0 h.Metrics.sum;
    Alcotest.(check (float 1e-9)) "min" 0.5 h.Metrics.hmin;
    Alcotest.(check (float 1e-9)) "max" 10.0 h.Metrics.hmax);
  (* registering the same (name, labels) again returns the same handle *)
  Metrics.inc (Metrics.counter "testm_basic_total");
  Alcotest.(check (option int)) "interned handle" (Some 6)
    (counter_value "testm_basic_total" [] (Metrics.snapshot ()))

let test_labels () =
  (* labels sort by key at registration, so insertion order is irrelevant *)
  let a = Metrics.counter ~labels:[ ("z", "1"); ("a", "2") ] "testm_labeled_total" in
  let b = Metrics.counter ~labels:[ ("a", "2"); ("z", "9") ] "testm_labeled_total" in
  Metrics.inc a;
  Metrics.inc ~n:2 b;
  let s = Metrics.snapshot () in
  Alcotest.(check (option int)) "series a" (Some 1)
    (counter_value "testm_labeled_total" [ ("a", "2"); ("z", "1") ] s);
  Alcotest.(check (option int)) "series b" (Some 2)
    (counter_value "testm_labeled_total" [ ("a", "2"); ("z", "9") ] s)

let test_kind_conflict () =
  ignore (Metrics.counter "testm_conflict_total");
  let raised =
    try
      ignore (Metrics.gauge "testm_conflict_total");
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "name reuse across kinds raises" true raised

(* a [~trace] handle feeds the ambient tracer with the same call, and obeys
   the facade: silent without a tracer and inside [Trace.without] *)
let test_trace_forwarding () =
  let c = Metrics.counter ~trace:"testm.fwd" "testm_fwd_total" in
  let h = Metrics.histogram ~trace:"testm.fwd_h" "testm_fwd_hist" in
  Metrics.inc c;
  let t = Tracer.create ~level:Tracer.Detail () in
  Trace.install t;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      Metrics.inc ~n:3 c;
      Metrics.observe h 2.0;
      Trace.without (fun () -> Metrics.inc ~n:10 c));
  Alcotest.(check int) "registry sees every update" 14 (Metrics.value c);
  Alcotest.(check int) "trace sees the traced ones" 3 (Tracer.counter_total t "testm.fwd");
  Alcotest.(check bool) "observe forwarded" true
    (List.exists
       (function Event.Observe { name = "testm.fwd_h"; v = 2.0; _ } -> true | _ -> false)
       (Tracer.events t))

let test_stable_only_filter () =
  let stable = Metrics.counter "testm_stable_total" in
  let unstable = Metrics.counter ~stable:false "testm_unstable_total" in
  Metrics.inc stable;
  Metrics.inc unstable;
  let s = Metrics.snapshot ~stable_only:true () in
  Alcotest.(check (option int)) "stable kept" (Some 1) (counter_value "testm_stable_total" [] s);
  Alcotest.(check (option int)) "unstable dropped" None
    (counter_value "testm_unstable_total" [] s);
  Alcotest.(check bool) "pool metrics dropped" true
    (not
       (List.exists
          (fun (x : Metrics.sample) ->
            String.length x.Metrics.name >= 12 && String.sub x.Metrics.name 0 12 = "xpiler_pool_")
          s));
  (* the full snapshot keeps both and synthesizes the pool series *)
  let full = Metrics.snapshot () in
  Alcotest.(check (option int)) "unstable in full snapshot" (Some 1)
    (counter_value "testm_unstable_total" [] full);
  Alcotest.(check bool) "pool gauge synthesized" true
    (gauge_value "xpiler_pool_max_jobs" [] full <> None)

let test_merge () =
  let c = Metrics.counter "testm_merge_total" in
  let g = Metrics.gauge "testm_merge_gauge" in
  let h = Metrics.histogram ~bounds:[| 1.0; 10.0 |] "testm_merge_hist" in
  Metrics.inc ~n:3 c;
  Metrics.set g 5.0;
  Metrics.observe h 0.5;
  let a = Metrics.snapshot () in
  Metrics.reset ();
  Metrics.inc ~n:4 c;
  Metrics.set g 2.0;
  Metrics.observe h 20.0;
  let b = Metrics.snapshot () in
  let m = Metrics.merge a b in
  Alcotest.(check (option int)) "counters add" (Some 7) (counter_value "testm_merge_total" [] m);
  Alcotest.(check (option (float 1e-9))) "gauges take max" (Some 5.0)
    (gauge_value "testm_merge_gauge" [] m);
  match hist_value "testm_merge_hist" [] m with
  | None -> Alcotest.fail "merged histogram missing"
  | Some h ->
    Alcotest.(check (array int)) "buckets add" [| 1; 0; 1 |] h.Metrics.counts;
    Alcotest.(check int) "counts add" 2 h.Metrics.count;
    Alcotest.(check (float 1e-9)) "sums add" 20.5 h.Metrics.sum

let test_hist_quantile_edges () =
  let h = Metrics.histogram ~bounds:[| 1.0; 2.0; 5.0 |] "testm_quant_hist" in
  let snap () =
    match hist_value "testm_quant_hist" [] (Metrics.snapshot ()) with
    | Some h -> h
    | None -> Alcotest.fail "histogram missing"
  in
  Alcotest.(check (float 1e-9)) "empty histogram -> 0, no exception" 0.0
    (Metrics.hist_quantile (snap ()) 0.5);
  Metrics.observe h 3.0;
  let one = snap () in
  Alcotest.(check (float 1e-9)) "single sample p50" 3.0 (Metrics.hist_quantile one 0.5);
  Alcotest.(check (float 1e-9)) "single sample p99" 3.0 (Metrics.hist_quantile one 0.99);
  Metrics.observe h 0.5;
  Metrics.observe h 10.0;
  let three = snap () in
  Alcotest.(check (float 1e-9)) "q<=0 -> min" 0.5 (Metrics.hist_quantile three 0.0);
  Alcotest.(check (float 1e-9)) "q>=1 -> max" 10.0 (Metrics.hist_quantile three 1.0);
  (* nearest rank 2 of 3 lands in the (2, 5] bucket; its upper bound is 5 *)
  Alcotest.(check (float 1e-9)) "p50 bucket bound" 5.0 (Metrics.hist_quantile three 0.5)

let test_openmetrics_format () =
  Metrics.reset ();
  let c = Metrics.counter ~help:"a counter" ~labels:[ ("k", "v") ] "testm_om_total" in
  let h = Metrics.histogram ~bounds:[| 1.0; 2.0 |] "testm_om_hist" in
  Metrics.inc ~n:2 c;
  Metrics.observe h 0.5;
  Metrics.observe h 1.5;
  Metrics.observe h 9.0;
  let keep = [ "testm_om_total"; "testm_om_hist" ] in
  let s =
    List.filter (fun (x : Metrics.sample) -> List.mem x.Metrics.name keep) (Metrics.snapshot ())
  in
  let text = Metrics.to_openmetrics s in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle -> Alcotest.(check bool) ("contains " ^ needle) true (contains needle))
    [ "# HELP testm_om_total a counter";
      "# TYPE testm_om_total counter";
      "testm_om_total{k=\"v\"} 2";
      "# TYPE testm_om_hist histogram";
      (* buckets are cumulative in the exposition format *)
      "testm_om_hist_bucket{le=\"1.0\"} 1";
      "testm_om_hist_bucket{le=\"2.0\"} 2";
      "testm_om_hist_bucket{le=\"+Inf\"} 3";
      "testm_om_hist_sum 11.0";
      "testm_om_hist_count 3"
    ];
  let eof = "# EOF\n" in
  Alcotest.(check string) "terminated by EOF"
    eof
    (String.sub text (String.length text - String.length eof) (String.length eof))

(* the synthesized pool latency histogram carries the observed min/max, so
   its quantiles are real task latencies rather than a clamp to zero *)
let test_pool_latency_histogram () =
  Metrics.reset ();
  ignore (Pool.map ~jobs:2 (fun _ () -> Unix.sleepf 0.002) [ (); (); () ]);
  match hist_value "xpiler_pool_task_latency_seconds" [] (Metrics.snapshot ()) with
  | None -> Alcotest.fail "pool latency histogram missing"
  | Some h ->
    Alcotest.(check int) "one observation per task" 3 h.Metrics.count;
    Alcotest.(check bool) "max is a real latency" true (h.Metrics.hmax >= 0.002);
    Alcotest.(check bool) "min <= max" true (h.Metrics.hmin <= h.Metrics.hmax);
    Alcotest.(check bool) "p50 > 0" true (Metrics.hist_quantile h 0.5 > 0.0)

let test_json_parseable () =
  Metrics.inc (Metrics.counter "testm_json_total");
  let s = Metrics.snapshot () in
  match Json.parse (Json.to_string (Metrics.to_json s)) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("metrics JSON does not parse: " ^ e)

(* ---- trace/registry parity --------------------------------------------- *)

(* every registry handle that forwards to a trace counter, with that name *)
let forwarded =
  [ ("llm.attempts", "xpiler_llm_attempts_total", []);
    ("llm.garbage", "xpiler_llm_garbage_total", []) ]
  @ List.map
      (fun r -> ("pass." ^ r, "xpiler_passes_total", [ ("result", r) ]))
      [ "applied"; "inapplicable"; "broken"; "skipped" ]
  @ List.map
      (fun v -> ("smt." ^ v, "xpiler_smt_queries_total", [ ("verdict", v) ]))
      [ "sat"; "unsat"; "timeout" ]

(* one traced translation that reaches SMT repair: each forwarded trace
   counter must equal the registry delta of its handle over the same run *)
let test_trace_registry_parity () =
  let relu = Registry.find_exn "relu" in
  let handles =
    List.map (fun (tname, name, labels) -> (tname, Metrics.counter ~labels name)) forwarded
  in
  let before = List.map (fun (_, c) -> Metrics.value c) handles in
  let t = Tracer.create ~level:Tracer.Detail () in
  Trace.install t;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      ignore
        (Xpiler.transcompile ~config:(Config.with_fault_scale Config.default 20.0)
           ~src:Platform.Cuda ~dst:Platform.Bang ~op:relu ~shape:(List.hd relu.Opdef.shapes) ()));
  List.iter2
    (fun (tname, c) v0 ->
      Alcotest.(check int) tname (Tracer.counter_total t tname) (Metrics.value c - v0))
    handles before;
  Alcotest.(check bool) "the run reached repair" true
    (Tracer.counter_total t "repair.candidates" > 0)

(* ---- journal sink -------------------------------------------------------- *)

let sample_events n =
  let t = Tracer.create ~level:Tracer.Detail () in
  for i = 1 to n do
    Tracer.count t ~n:i "alpha";
    Tracer.observe t "h" (float_of_int i)
  done;
  Tracer.events t

let read_all path = In_channel.with_open_bin path In_channel.input_all

let test_journal_sink () =
  let evs = sample_events 3 in
  let batch1 = List.filteri (fun i _ -> i < 2) evs in
  let batch2 = List.filteri (fun i _ -> i >= 2) evs in
  let p_oneshot = Filename.temp_file "xpiler_oneshot" ".jsonl" in
  let p_sink = Filename.temp_file "xpiler_sink" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove p_oneshot;
      Sys.remove p_sink)
    (fun () ->
      (* the one-shot path: write then append *)
      Journal.write_file p_oneshot batch1;
      Journal.append_file p_oneshot batch2;
      (* the sink path: one open channel, two emits *)
      let sink = Journal.open_sink p_sink in
      Journal.emit sink batch1;
      Journal.emit sink batch2;
      Journal.close sink;
      Alcotest.(check string) "sink and one-shots agree byte-for-byte" (read_all p_oneshot)
        (read_all p_sink);
      (match Journal.read_file p_sink with
      | Ok back -> Alcotest.(check string) "decodes to the same events"
          (Journal.encode evs) (Journal.encode back)
      | Error e -> Alcotest.fail e);
      Journal.close sink;  (* idempotent *)
      let raised = try Journal.emit sink []; false with Invalid_argument _ -> true in
      Alcotest.(check bool) "emit after close raises" true raised;
      (* ~append:true continues an existing file *)
      let sink2 = Journal.open_sink ~append:true p_sink in
      Journal.emit sink2 batch1;
      Journal.close sink2;
      Alcotest.(check string) "append sink extends the file"
        (read_all p_oneshot ^ Journal.encode batch1)
        (read_all p_sink))

(* ---- profiler ------------------------------------------------------------ *)

let test_prof_aggregation () =
  Prof.reset ();
  Prof.enable ();
  Fun.protect ~finally:Prof.disable (fun () ->
      let v = Prof.span "testm.work" (fun () -> Array.length (Array.make 4096 0.0)) in
      Alcotest.(check int) "span passes the value through" 4096 v;
      ignore (Prof.span "testm.work" (fun () -> ())));
  let r = Prof.report () in
  (match List.find_opt (fun (s : Prof.span_row) -> s.Prof.span = "testm.work") r.Prof.span_rows with
  | None -> Alcotest.fail "span row missing"
  | Some s ->
    Alcotest.(check int) "span count" 2 s.Prof.count;
    Alcotest.(check bool) "wall time non-negative" true (s.Prof.wall_s >= 0.0));
  (* JSON export parses back *)
  (match Json.parse (Json.to_string (Prof.to_json r)) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("profile JSON does not parse: " ^ e));
  (* disabled: spans pass through without aggregating *)
  Prof.reset ();
  ignore (Prof.span "testm.off" (fun () -> ()));
  let r = Prof.report () in
  Alcotest.(check int) "no rows while disabled" 0 (List.length r.Prof.span_rows)

let test_prof_trace_segregation () =
  let run profile =
    let config =
      { (Config.with_seed Config.default 7) with
        Config.trace_level = Tracer.Detail;
        profile
      }
    in
    let o =
      Xpiler.transcompile ~config ~src:Platform.Cuda ~dst:Platform.Bang ~op:gemm
        ~shape:gemm_shape ()
    in
    Journal.encode o.Xpiler.trace
  in
  (* one warm-up translation so both compared runs see the same steady-state
     caches (a cold compile/reference cache changes interp.* trace counters
     between consecutive runs, which has nothing to do with profiling) *)
  ignore (run false);
  let off = run false in
  let on = run true in
  Alcotest.(check bool) "trace is non-trivial" true (String.length off > 0);
  Alcotest.(check string) "journal byte-identical with profiling on" off on

(* ---- stable snapshot determinism across jobs ----------------------------- *)

let forcing_domains f =
  let saved = Pool.get_max_domains () in
  Pool.set_max_domains 4;
  Fun.protect ~finally:(fun () -> Pool.set_max_domains saved) f

let test_snapshot_jobs_deterministic () =
  forcing_domains @@ fun () ->
  let config =
    { Mcts.default_config with simulations = 24; max_depth = 6; root_parallel = 3 }
  in
  let platform = Platform.bang in
  (* warm-start specs recorded by a previous translation of the same kernel *)
  let prime =
    let db = Schedule_db.create () in
    ignore (Mcts.search ~config ~buffer_sizes ~share:true ~db ~platform (serial ()));
    Schedule_db.lookup db platform.Platform.id (serial ())
  in
  let run jobs =
    Transposition.clear ();
    Metrics.reset ();
    let db = Schedule_db.create () in
    (match prime with
    | Some specs -> Schedule_db.record db platform.Platform.id (serial ()) ~specs ~reward:1.0
    | None -> ());
    ignore (Mcts.search ~config ~buffer_sizes ~jobs ~share:true ~db ~platform (serial ()));
    Json.to_string (Metrics.to_json (Metrics.snapshot ~stable_only:true ()))
  in
  (* one warm-up of the measured workload so both compared runs see identical
     compile-cache state (cache contents survive Metrics.reset) *)
  ignore (run 1);
  let s1 = run 1 in
  let s4 = run 4 in
  Alcotest.(check string) "stable snapshot byte-identical across jobs" s1 s4;
  (* the run did exercise the schedule-dependent counters we excluded *)
  Alcotest.(check bool) "transposition lookups happened" true
    (Transposition.hits () + Transposition.misses () > 0);
  Alcotest.(check bool) "stable snapshot is non-trivial" true
    (String.length s1 > String.length "[]")

(* ---- bench history ------------------------------------------------------- *)

let entry ?(smoke = true) ?time bench metrics = { BH.bench; smoke; time; metrics }

let test_history_roundtrip () =
  let e = entry ~time:1754600000.5 "eval" [ ("a_metric", 1.5); ("b_metric", 2.0) ] in
  (match BH.entry_of_json (BH.entry_to_json e) with
  | Ok back -> Alcotest.(check bool) "roundtrips" true (back = e)
  | Error err -> Alcotest.fail err);
  let no_time = entry "tuning" [ ("m", 0.25) ] in
  match BH.entry_of_json (BH.entry_to_json no_time) with
  | Ok back -> Alcotest.(check bool) "roundtrips without time" true (back = no_time)
  | Error err -> Alcotest.fail err

let test_history_append_load () =
  let path = Filename.temp_file "xpiler_hist" ".jsonl" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (match BH.load ~path () with
      | Ok [] -> ()
      | Ok _ -> Alcotest.fail "missing file should load as empty"
      | Error e -> Alcotest.fail e);
      let e1 = entry "eval" [ ("geomean_speedup", 3.0) ] in
      let e2 = entry "tuning" [ ("eval_reduction_mean", 0.5) ] in
      BH.append ~path e1;
      BH.append ~path e2;
      match BH.load ~path () with
      | Ok entries -> Alcotest.(check bool) "two entries back" true (entries = [ e1; e2 ])
      | Error e -> Alcotest.fail e)

let doctored_eval_bench path ~speedup ~eps =
  let oc = open_out path in
  Printf.fprintf oc
    {|{
  "schema": "xpiler-eval-bench/v1", "smoke": true,
  "kernels": [
    {"op": "gemm", "compiled_elems_per_sec": %e, "speedup": %f},
    {"op": "softmax", "compiled_elems_per_sec": %e, "speedup": %f}
  ],
  "geomean_speedup": %f,
  "tuning": {"parallel_speedup": 1.1, "deterministic": true}
}
|}
    eps speedup eps speedup speedup;
  close_out oc

let test_of_bench_file_and_regression () =
  let path = Filename.temp_file "xpiler_bencheval" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      doctored_eval_bench path ~speedup:2.0 ~eps:1e6;
      let current =
        match BH.of_bench_file ~bench:"eval" path with
        | Ok e -> e
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check (option (float 1e-6))) "geomean extracted" (Some 2.0)
        (List.assoc_opt "geomean_speedup" current.BH.metrics);
      Alcotest.(check (option (float 1.0))) "eps geomean extracted" (Some 1e6)
        (List.assoc_opt "compiled_eps_geomean" current.BH.metrics);
      (* a history full of much faster runs: the doctored current entry must
         register as a regression on the wall-clock throughput metrics *)
      let fast = entry "eval" [ ("geomean_speedup", 100.0); ("compiled_eps_geomean", 1e9) ] in
      let verdicts = BH.diff ~history:[ fast; fast; fast ] current in
      let bad = BH.regressions verdicts in
      Alcotest.(check bool) "inflated history flags a regression" true (bad <> []);
      Alcotest.(check bool) "geomean_speedup among the regressions" true
        (List.exists (fun (v : BH.verdict) -> v.BH.metric = "geomean_speedup") bad);
      (* exact-only mode skips the Wall-noise metrics entirely *)
      let exact = BH.diff ~exact_only:true ~history:[ fast; fast; fast ] current in
      Alcotest.(check bool) "exact-only skips wall metrics" true (BH.regressions exact = []);
      (* matching history: no regression *)
      let same = entry "eval" current.BH.metrics in
      Alcotest.(check bool) "parity is not a regression" true
        (BH.regressions (BH.diff ~history:[ same; same ] current) = []);
      (* no matching history at all: baseline None, never regressed *)
      let full_run = { current with BH.smoke = false } in
      let v = BH.diff ~history:[ fast ] full_run in
      Alcotest.(check bool) "smoke and full runs never compare" true
        (List.for_all (fun (x : BH.verdict) -> x.BH.baseline = None && not x.BH.regressed) v))

(* histories written while the eval bench still reported the retired
   speedup-geomean metric (schema v2) keep loading and diffing: the metric
   is neither extracted from a v2 file nor given a verdict *)
let retired_metric = "native_speedup_geomean"

let test_history_retired_metric () =
  let path = Filename.temp_file "xpiler_hist" ".jsonl" in
  let bench = Filename.temp_file "xpiler_bencheval" ".json" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ path; bench ])
    (fun () ->
      let old =
        entry "eval"
          [ ("compiled_eps_geomean", 1e6); ("geomean_speedup", 2.0); (retired_metric, 2.3);
            ("parallel_speedup", 1.0) ]
      in
      Sys.remove path;
      BH.append ~path old;
      BH.append ~path old;
      let hist = match BH.load ~path () with Ok h -> h | Error m -> Alcotest.fail m in
      let oc = open_out bench in
      Printf.fprintf oc
        {|{"schema": "xpiler-eval-bench/v2", "smoke": true,
  "kernels": [{"op": "gemm", "compiled_elems_per_sec": 1e6, "speedup": 2.0}],
  "geomean_speedup": 2.0, %S: 0.5,
  "tuning": {"parallel_speedup": 1.0, "deterministic": true}}
|}
        retired_metric;
      close_out oc;
      let current =
        match BH.of_bench_file ~bench:"eval" bench with Ok e -> e | Error m -> Alcotest.fail m
      in
      Alcotest.(check bool) "not extracted" false
        (List.mem_assoc retired_metric current.BH.metrics);
      let verdicts = BH.diff ~history:hist current in
      Alcotest.(check bool) "no verdict for the retired metric" true
        (List.for_all (fun (v : BH.verdict) -> v.BH.metric <> retired_metric) verdicts);
      Alcotest.(check bool) "live metrics still compared" true (verdicts <> []);
      Alcotest.(check bool) "no regression" true (BH.regressions verdicts = []);
      (* an entry that itself still carries the metric diffs the same way *)
      Alcotest.(check bool) "old-shaped entry diffs cleanly" true
        (List.for_all
           (fun (v : BH.verdict) -> v.BH.metric <> retired_metric && not v.BH.regressed)
           (BH.diff ~history:hist old)))

let test_history_zero_baseline () =
  (* a zero median makes the relative drop undefined; the defined semantics:
     any worsening move off zero is an unbounded relative change, so only
     the absolute slack can excuse it (eval_reduction_mean: Higher, slack
     0.05) *)
  let hist = [ entry "tuning" [ ("eval_reduction_mean", 0.0); ("best_reward_ratio_min", 1.0) ] ] in
  let v_of m verdicts = List.find (fun (v : BH.verdict) -> v.BH.metric = m) verdicts in
  let worse = entry "tuning" [ ("eval_reduction_mean", -0.5); ("best_reward_ratio_min", 1.0) ] in
  let v = v_of "eval_reduction_mean" (BH.diff ~history:hist worse) in
  Alcotest.(check bool) "beyond-slack move off zero regresses" true v.BH.regressed;
  Alcotest.(check bool) "detail names the zero median" true
    (let needle = "zero median" in
     let len = String.length needle in
     let rec has i =
       i + len <= String.length v.BH.detail && (String.sub v.BH.detail i len = needle || has (i + 1))
     in
     has 0);
  let within = entry "tuning" [ ("eval_reduction_mean", -0.04); ("best_reward_ratio_min", 1.0) ] in
  Alcotest.(check bool) "within-slack move off zero passes" false
    (v_of "eval_reduction_mean" (BH.diff ~history:hist within)).BH.regressed;
  let better = entry "tuning" [ ("eval_reduction_mean", 0.3); ("best_reward_ratio_min", 1.0) ] in
  Alcotest.(check bool) "improvement off zero passes" false
    (v_of "eval_reduction_mean" (BH.diff ~history:hist better)).BH.regressed

let test_history_record_corrupt () =
  let path = Filename.temp_file "xpiler_hist" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let e = entry "tuning" [ ("eval_reduction_mean", 0.5) ] in
      (* intact history: record appends and reports verdicts *)
      (match BH.record ~path e with
      | Ok [] -> ()
      | Ok _ -> Alcotest.fail "no history yet, nothing can regress"
      | Error m -> Alcotest.fail m);
      (* corrupt history: record must surface the error, not append to the
         broken file as if the baseline were merely empty *)
      let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
      output_string oc "{not json\n";
      close_out oc;
      let size_before = (Unix.stat path).Unix.st_size in
      (match BH.record ~path e with
      | Ok _ -> Alcotest.fail "corrupt history must be an error"
      | Error _ -> ());
      Alcotest.(check int) "nothing appended past the corruption" size_before
        (Unix.stat path).Unix.st_size)

let doctored_tuning_bench path ~store_warm =
  let oc = open_out path in
  Printf.fprintf oc
    {|{
  "schema": "xpiler-tuning-bench/v2", "smoke": true,
  "kernels": [
    {"op": "gemm", "eval_reduction": 0.5, "best_reward_ratio": 1.0},
    {"op": "softmax", "eval_reduction": 0.3, "best_reward_ratio": 1.0}
  ]%s
}
|}
    (match store_warm with
    | Some mean ->
      Printf.sprintf
        {|,
  "store_warm_start": {"kernels": [{"op": "gemm", "warm_reduction": %f}], "warm_reduction_mean": %f}|}
        mean mean
    | None -> "");
  close_out oc

let test_store_warm_metric_absent_not_zero () =
  let path = Filename.temp_file "xpiler_benchtuning" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* pre-store (v1-shaped) file: the metric must be absent, so histories
         spanning the schema change skip the spec instead of reading the old
         runs as total regressions *)
      doctored_tuning_bench path ~store_warm:None;
      let old_run =
        match BH.of_bench_file ~bench:"tuning" path with Ok e -> e | Error m -> Alcotest.fail m
      in
      Alcotest.(check (option (float 1e-9))) "absent without store section" None
        (List.assoc_opt "store_warm_reduction_mean" old_run.BH.metrics);
      doctored_tuning_bench path ~store_warm:(Some 0.9);
      let current =
        match BH.of_bench_file ~bench:"tuning" path with Ok e -> e | Error m -> Alcotest.fail m
      in
      Alcotest.(check (option (float 1e-6))) "extracted when present" (Some 0.9)
        (List.assoc_opt "store_warm_reduction_mean" current.BH.metrics);
      (* the spec is live and gated: a collapse against a better history
         regresses, and old-run entries without the metric contribute no
         baseline *)
      let degraded = { current with BH.metrics = [ ("store_warm_reduction_mean", 0.1) ] } in
      let bad = BH.regressions (BH.diff ~history:[ current; current ] degraded) in
      Alcotest.(check bool) "collapsed warm reduction regresses" true
        (List.exists (fun (v : BH.verdict) -> v.BH.metric = "store_warm_reduction_mean") bad);
      let v = BH.diff ~history:[ old_run ] degraded in
      Alcotest.(check bool) "old runs give no baseline" true
        (List.for_all
           (fun (x : BH.verdict) ->
             x.BH.metric <> "store_warm_reduction_mean" || x.BH.baseline = None)
           v))

let test_history_direction_lower_better () =
  (* resilience ladder_broken: lower is better, abs_slack 0.5 absorbs +-0 *)
  let hist = [ entry "resilience" [ ("ladder_broken", 1.0); ("seed_broken", 6.0) ] ] in
  let worse = entry "resilience" [ ("ladder_broken", 5.0); ("seed_broken", 6.0) ] in
  let bad = BH.regressions (BH.diff ~history:hist worse) in
  Alcotest.(check bool) "more broken kernels regresses" true
    (List.exists (fun (v : BH.verdict) -> v.BH.metric = "ladder_broken") bad);
  let same = entry "resilience" [ ("ladder_broken", 1.0); ("seed_broken", 6.0) ] in
  Alcotest.(check bool) "equal count passes" true
    (BH.regressions (BH.diff ~history:hist same) = []);
  (* threshold_scale widens the gate: a huge scale forgives the regression *)
  Alcotest.(check bool) "threshold scale widens slack" true
    (BH.regressions (BH.diff ~threshold_scale:100.0 ~history:hist worse) = [])

let () =
  Alcotest.run "metrics"
    [ ( "registry",
        [ Alcotest.test_case "counter gauge histogram" `Quick test_counter_gauge_histogram;
          Alcotest.test_case "labels" `Quick test_labels;
          Alcotest.test_case "kind conflict" `Quick test_kind_conflict;
          Alcotest.test_case "trace forwarding" `Quick test_trace_forwarding;
          Alcotest.test_case "trace parity" `Quick test_trace_registry_parity;
          Alcotest.test_case "stable-only filter" `Quick test_stable_only_filter;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "hist quantile edges" `Quick test_hist_quantile_edges;
          Alcotest.test_case "openmetrics format" `Quick test_openmetrics_format;
          Alcotest.test_case "pool latency histogram" `Quick test_pool_latency_histogram;
          Alcotest.test_case "json parseable" `Quick test_json_parseable
        ] );
      ( "journal",
        [ Alcotest.test_case "buffered sink" `Quick test_journal_sink ] );
      ( "profiler",
        [ Alcotest.test_case "aggregation" `Quick test_prof_aggregation;
          Alcotest.test_case "trace segregation" `Quick test_prof_trace_segregation
        ] );
      ( "determinism",
        [ Alcotest.test_case "stable snapshot across jobs" `Quick
            test_snapshot_jobs_deterministic
        ] );
      ( "bench-history",
        [ Alcotest.test_case "entry roundtrip" `Quick test_history_roundtrip;
          Alcotest.test_case "append and load" `Quick test_history_append_load;
          Alcotest.test_case "bench extraction and regression" `Quick
            test_of_bench_file_and_regression;
          Alcotest.test_case "retired eval metric diffs cleanly" `Quick
            test_history_retired_metric;
          Alcotest.test_case "zero baseline semantics" `Quick test_history_zero_baseline;
          Alcotest.test_case "corrupt history surfaces" `Quick test_history_record_corrupt;
          Alcotest.test_case "store warm metric absent-not-zero" `Quick
            test_store_warm_metric_absent_not_zero;
          Alcotest.test_case "lower-is-better direction" `Quick
            test_history_direction_lower_better
        ] )
    ]
