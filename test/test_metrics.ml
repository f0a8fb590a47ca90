(* Observability-layer guarantees: the typed metrics registry and the
   wall-clock profiler. The two load-bearing invariants — the reasons this
   layer is safe to leave on in production — are (1) the registry snapshot
   is byte-identical whatever the job count of the pool running whole
   translations (asserted in test_sessions.ml), and
   (2) the always-on profiler stream is fully segregated from the tracer, so
   its spans never reach a journal. *)

open Xpiler_machine
open Xpiler_ops
open Xpiler_core
module Json = Xpiler_obs.Json
module Event = Xpiler_obs.Event
module Tracer = Xpiler_obs.Tracer
module Journal = Xpiler_obs.Journal
module Trace = Xpiler_obs.Trace
module Metrics = Xpiler_obs.Metrics
module Prof = Xpiler_obs.Prof
module Repairer = Xpiler_repair.Repairer
module Solver = Xpiler_smt.Solver

let gemm = Registry.find_exn "gemm"

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
  Metrics.set g 3.75;
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
   the facade: silent without a tracer *)
let test_trace_forwarding () =
  let c = Metrics.counter ~trace:"testm.fwd" "testm_fwd_total" in
  let h = Metrics.histogram ~trace:"testm.fwd_h" "testm_fwd_hist" in
  Metrics.inc c;
  let t = Tracer.create () in
  Trace.with_tracer t (fun () ->
      Metrics.inc ~n:3 c;
      Metrics.observe h 2.0);
  Metrics.inc ~n:10 c;
  Alcotest.(check int) "registry sees every update" 14 (Metrics.value c);
  Alcotest.(check int) "trace sees the traced ones" 3 (Tracer.counter_total t "testm.fwd");
  Alcotest.(check bool) "observe forwarded" true
    (List.exists
       (function Event.Observe { name = "testm.fwd_h"; v = 2.0; _ } -> true | _ -> false)
       (Tracer.events t))

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
  let t = Tracer.create () in
  Trace.with_tracer t (fun () ->
      ignore
        (Xpiler.transcompile ~config:(Config.with_fault_scale Config.default 20.0)
           ~src:Platform.Cuda ~dst:Platform.Bang ~op:relu ~shape:(List.hd relu.Opdef.shapes) ()));
  List.iter2
    (fun (tname, c) v0 ->
      Alcotest.(check int) tname (Tracer.counter_total t tname) (Metrics.value c - v0))
    handles before;
  Alcotest.(check bool) "the run reached repair" true
    (Tracer.counter_total t "repair.candidates" > 0)

(* ---- profiler ------------------------------------------------------------ *)

let test_prof_aggregation () =
  Prof.reset ();
  let v = Prof.span "testm.work" (fun () -> Array.length (Array.make 4096 0.0)) in
  Alcotest.(check int) "span passes the value through" 4096 v;
  ignore (Prof.span "testm.work" (fun () -> ()));
  let r = Prof.report () in
  (match List.find_opt (fun (s : Prof.span_row) -> s.Prof.span = "testm.work") r.Prof.span_rows with
  | None -> Alcotest.fail "span row missing"
  | Some s ->
    Alcotest.(check int) "span count" 2 s.Prof.count;
    Alcotest.(check bool) "wall time non-negative" true (s.Prof.wall_s >= 0.0);
    Alcotest.(check bool) "the array's words are counted" true (s.Prof.alloc_words >= 4096.0);
    Alcotest.(check int) "row agrees with the report" s.Prof.count
      (Prof.row "testm.work").Prof.count);
  Alcotest.(check int) "a span that never ran reads zero" 0 (Prof.row "testm.never").Prof.count;
  (* JSON export parses back *)
  match Json.parse (Json.to_string (Prof.to_json r)) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("profile JSON does not parse: " ^ e)

(* One repairing translation with the default config, traced, with the
   bench meters, the profiler rows and the fresh-solve counters read around
   it. The profiler is always on, so nothing needs switching. *)
type meter_run = {
  journal : Event.t list;
  rows : (string * Prof.span_row * Prof.span_row) list;  (** name, before, after *)
  wall : Repairer.wall_stats * Repairer.wall_stats;
  work : Solver.work * Solver.work;
  fresh : (string * int * int) list;  (** counter name, before, after *)
  report : Prof.report;
}

let meter_run =
  lazy
    (let row_names =
       [ "repair"; "repair.localize"; "repair.solve"; "repair.test"; "repair.score"; "smt.search" ]
     in
     let counters =
       List.map
         (fun n -> (n, Metrics.counter n))
         [ "xpiler_smt_fresh_solves_total"; "xpiler_smt_fresh_steps_total";
           "xpiler_smt_fresh_evals_total" ]
     in
     let rows0 = List.map Prof.row row_names in
     let counts0 = List.map (fun (_, c) -> Metrics.value c) counters in
     let wall0 = Repairer.wall_totals () and work0 = Solver.work_totals () in
     let config =
       Config.with_trace
         (Config.with_fault_scale (Config.with_seed Config.default 1) 20.0)
         Tracer.Detail
     in
     let o =
       Xpiler.transcompile ~config ~src:Platform.Cuda ~dst:Platform.Bang ~op:gemm
         ~shape:(List.hd gemm.Opdef.shapes) ()
     in
     let wall1 = Repairer.wall_totals () and work1 = Solver.work_totals () in
     { journal = o.Xpiler.trace;
       rows = List.map2 (fun n r0 -> (n, r0, Prof.row n)) row_names rows0;
       wall = (wall0, wall1);
       work = (work0, work1);
       fresh = List.map2 (fun (n, c) v0 -> (n, v0, Metrics.value c)) counters counts0;
       report = Prof.report ()
     })

(* the profiler-only spans never reach the journal, and span-backed
   profiler rows keep their bounded keys *)
let test_prof_trace_segregation () =
  let r = Lazy.force meter_run in
  let names = List.map Event.name r.journal in
  Alcotest.(check bool) "the journal has the repair span" true (List.mem "repair" names);
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " stays out of the journal") false (List.mem n names))
    [ "repair.localize"; "repair.solve"; "repair.test"; "repair.score"; "smt.search" ];
  let pass_rows =
    List.filter
      (fun (s : Prof.span_row) -> String.starts_with ~prefix:"pass." s.Prof.span)
      r.report.Prof.span_rows
  in
  Alcotest.(check bool) "pass spans were profiled" true (pass_rows <> []);
  List.iter
    (fun (s : Prof.span_row) ->
      let family = String.sub s.Prof.span 5 (String.length s.Prof.span - 5) in
      Alcotest.(check bool) (s.Prof.span ^ " is keyed by a pass family") true
        (List.mem family Xpiler_passes.Pass.family_names))
    pass_rows

(* the bench meters are views of the profiler rows and registry counters *)
let test_prof_meters_agree () =
  let r = Lazy.force meter_run in
  let row name =
    let _, r0, r1 = List.find (fun (n, _, _) -> n = name) r.rows in
    (r1.Prof.count - r0.Prof.count, r1.Prof.wall_s -. r0.Prof.wall_s)
  in
  let fresh name =
    let _, v0, v1 = List.find (fun (n, _, _) -> n = name) r.fresh in
    v1 - v0
  in
  let (w0 : Repairer.wall_stats), w1 = r.wall and (s0 : Solver.work), s1 = r.work in
  let wall f = f w1 -. f w0 in
  Alcotest.(check bool) "the run repaired" true (w1.Repairer.repairs > w0.Repairer.repairs);
  Alcotest.(check int) "repairs" (fst (row "repair")) (w1.Repairer.repairs - w0.Repairer.repairs);
  List.iter
    (fun (name, delta) -> Alcotest.(check (float 1e-9)) name (snd (row name)) delta)
    [ ("repair", wall (fun w -> w.Repairer.wall_seconds));
      ("repair.localize", wall (fun w -> w.Repairer.localize_seconds));
      ("repair.solve", wall (fun w -> w.Repairer.solve_seconds));
      ("repair.test", wall (fun w -> w.Repairer.test_seconds));
      ("repair.score", wall (fun w -> w.Repairer.score_seconds));
      ("smt.search", s1.Solver.fresh_wall -. s0.Solver.fresh_wall) ];
  List.iter
    (fun (name, delta) -> Alcotest.(check int) name (fresh name) delta)
    [ ("xpiler_smt_fresh_solves_total", s1.Solver.fresh_solves - s0.Solver.fresh_solves);
      ("xpiler_smt_fresh_steps_total", s1.Solver.fresh_steps - s0.Solver.fresh_steps);
      ("xpiler_smt_fresh_evals_total", s1.Solver.fresh_evals - s0.Solver.fresh_evals) ];
  Alcotest.(check int) "one smt.search span per fresh solve" (fst (row "smt.search"))
    (s1.Solver.fresh_solves - s0.Solver.fresh_solves);
  Alcotest.(check bool) "candidate tests were timed" true (fst (row "repair.test") > 0)

let () =
  Alcotest.run "metrics"
    [ ( "registry",
        [ Alcotest.test_case "counter gauge histogram" `Quick test_counter_gauge_histogram;
          Alcotest.test_case "labels" `Quick test_labels;
          Alcotest.test_case "kind conflict" `Quick test_kind_conflict;
          Alcotest.test_case "trace forwarding" `Quick test_trace_forwarding;
          Alcotest.test_case "trace parity" `Quick test_trace_registry_parity;
          Alcotest.test_case "hist quantile edges" `Quick test_hist_quantile_edges;
          Alcotest.test_case "openmetrics format" `Quick test_openmetrics_format;
          Alcotest.test_case "json parseable" `Quick test_json_parseable
        ] );
      ( "profiler",
        [ Alcotest.test_case "aggregation" `Quick test_prof_aggregation;
          Alcotest.test_case "trace segregation" `Quick test_prof_trace_segregation;
          Alcotest.test_case "meters agree" `Quick test_prof_meters_agree
        ] )
    ]
