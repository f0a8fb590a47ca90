(* Tests for the observability layer: JSON, tracer semantics, journal and
   Chrome exporters, summaries, and the end-to-end guarantee that stage
   span durations sum to exactly the Vclock breakdown. *)

open Xpiler_obs
module Vclock = Xpiler_util.Vclock

(* ---- json -------------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [ ("a", Json.Int 42);
        ("b", Json.Float 0.1);
        ("c", Json.Str "he said \"hi\"\n\ttab");
        ("d", Json.List [ Json.Null; Json.Bool true; Json.Bool false ]);
        ("e", Json.Obj [ ("nested", Json.Float (-1.5e-7)) ])
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
  | Error m -> Alcotest.fail m

let test_json_float_exact () =
  (* the printer promises shortest round-tripping decimals *)
  List.iter
    (fun f ->
      match Json.parse (Json.to_string (Json.Float f)) with
      | Error m -> Alcotest.fail m
      | Ok j ->
        (match Json.to_float j with
        | Some f' ->
          Alcotest.(check bool) (Printf.sprintf "float %h round-trips" f) true (f' = f)
        | None -> Alcotest.fail "not a number"))
    [ 0.0; 1.0; 0.1; 1.0 /. 3.0; 1e300; 5e-324; -2.5 ]

let test_json_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

(* ---- tracer ------------------------------------------------------------------ *)

let test_tracer_stage_charge_advances () =
  let t = Tracer.create () in
  Alcotest.(check (float 1e-9)) "starts at 0" 0.0 (Tracer.now t);
  Tracer.stage_charge t "annotation" 2.0;
  Tracer.stage_charge t "smt-solving" 0.5;
  Alcotest.(check (float 1e-9)) "now = sum of charges" 2.5 (Tracer.now t);
  let stage_spans =
    List.filter_map
      (function
        | Event.Span { cat = "stage"; name; ts; dur; _ } -> Some (name, ts, dur)
        | _ -> None)
      (Tracer.events t)
  in
  Alcotest.(check int) "one span per charge" 2 (List.length stage_spans);
  Alcotest.(check bool) "charge timestamps abut" true
    (stage_spans = [ ("annotation", 0.0, 2.0); ("smt-solving", 2.0, 0.5) ])

let test_tracer_span_nesting () =
  let t = Tracer.create () in
  Tracer.with_span t "outer" (fun () ->
      Tracer.stage_charge t "annotation" 1.0;
      Tracer.with_span t ~cat:"pass" ~attrs:[ ("k", "v") ] "inner" (fun () ->
          Tracer.stage_charge t "unit-test" 3.0));
  let spans =
    List.filter_map
      (function
        | Event.Span { cat = "stage"; _ } -> None
        | Event.Span { name; ts; dur; depth; attrs; _ } -> Some (name, ts, dur, depth, attrs)
        | _ -> None)
      (Tracer.events t)
  in
  (* children close before parents, so inner is emitted first *)
  Alcotest.(check bool) "inner span" true
    (List.mem ("inner", 1.0, 3.0, 1, [ ("k", "v") ]) spans);
  Alcotest.(check bool) "outer span covers both charges" true
    (List.mem ("outer", 0.0, 4.0, 0, []) spans);
  Alcotest.(check int) "stack empty" 0 (Tracer.depth t)

let test_tracer_span_end_unwinds () =
  (* an exception inside nested spans must not leave the stack misaligned *)
  let t = Tracer.create () in
  (try
     Tracer.with_span t "outer" (fun () ->
         let _inner = Tracer.span_begin t "leaked" in
         Tracer.stage_charge t "annotation" 1.0;
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "stack unwound" 0 (Tracer.depth t);
  let names =
    List.filter_map
      (function Event.Span { name; _ } -> Some name | _ -> None)
      (Tracer.events t)
  in
  Alcotest.(check bool) "leaked span closed" true (List.mem "leaked" names);
  Alcotest.(check bool) "outer span closed" true (List.mem "outer" names)

let test_tracer_levels () =
  let stages = Tracer.create ~level:Tracer.Stages () in
  Tracer.count stages "c";
  Tracer.observe stages "h" 1.0;
  Tracer.instant stages "i";
  Alcotest.(check int) "Stages drops metrics" 0 (List.length (Tracer.events stages));
  Tracer.with_span stages "s" (fun () -> Tracer.stage_charge stages "annotation" 1.0);
  Alcotest.(check int) "Stages keeps spans" 2 (List.length (Tracer.events stages));
  let detail = Tracer.create ~level:Tracer.Detail () in
  Tracer.count detail ~n:3 "c";
  Tracer.count detail "c";
  Tracer.observe detail "h" 1.0;
  Tracer.instant detail "i";
  Alcotest.(check int) "Detail keeps metrics" 4 (List.length (Tracer.events detail));
  Alcotest.(check int) "counter total" 4 (Tracer.counter_total detail "c")

let test_trace_facade_noop () =
  Trace.without @@ fun () ->
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  (* all of these must be silent no-ops *)
  Trace.count "c";
  Trace.observe "h" 1.0;
  Trace.instant "i";
  Alcotest.(check int) "span still runs body" 7 (Trace.span "s" (fun () -> 7));
  let t = Tracer.create () in
  Trace.with_tracer t (fun () -> Trace.count "c");
  Trace.count "c";
  Alcotest.(check int) "scoped tracer saw one count" 1 (Tracer.counter_total t "c")

(* a scope restores the tracer that was current when it opened: the inner
   translation's tracer must not end the outer experiment's journal, as a
   paired set-then-clear of the slot did *)
let test_trace_nested_scope () =
  let outer = Tracer.create () and inner = Tracer.create () in
  Trace.with_tracer outer (fun () ->
      Trace.count "c";
      Trace.with_tracer inner (fun () -> Trace.count "c");
      Alcotest.(check bool) "outer restored" true
        (match Trace.current () with Some t -> t == outer | None -> false);
      Trace.count "c");
  Alcotest.(check bool) "none after the outer scope" true (Trace.current () = None);
  Alcotest.(check int) "outer saw its two counts" 2 (Tracer.counter_total outer "c");
  Alcotest.(check int) "inner saw one" 1 (Tracer.counter_total inner "c")

(* ---- events and journal ------------------------------------------------------ *)

let sample_events =
  [ Event.Span
      { name = "translate:gemm"; cat = "translate"; ts = 0.0; dur = 12.5; depth = 0;
        attrs = [ ("src", "cuda"); ("dst", "bang") ] };
    Event.Span { name = "annotation"; cat = "stage"; ts = 0.0; dur = 2.0; depth = 1; attrs = [] };
    Event.Instant { name = "status"; ts = 12.5; attrs = [ ("status", "success") ] };
    Event.Count { name = "llm.attempts"; ts = 3.0; n = 2 };
    Event.Observe { name = "mcts.reward"; ts = 4.0; v = 0.875 }
  ]

let test_event_roundtrip () =
  List.iter
    (fun e ->
      match Event.decode_line (Event.encode_line e) with
      | Ok e' -> Alcotest.(check bool) (Event.name e) true (e = e')
      | Error m -> Alcotest.fail m)
    sample_events

let test_journal_roundtrip () =
  let s = Journal.encode sample_events in
  Alcotest.(check int) "one line per event"
    (List.length sample_events)
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' s)));
  (match Journal.decode s with
  | Ok es -> Alcotest.(check bool) "decode inverts encode" true (es = sample_events)
  | Error m -> Alcotest.fail m);
  (* blank lines are tolerated, malformed lines abort with their number *)
  (match Journal.decode ("\n" ^ s ^ "\n") with
  | Ok es -> Alcotest.(check int) "blanks skipped" (List.length sample_events) (List.length es)
  | Error m -> Alcotest.fail m);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  match Journal.decode (s ^ "{oops\n") with
  | Ok _ -> Alcotest.fail "accepted malformed line"
  | Error m -> Alcotest.(check bool) "error carries line number" true (contains m "line 6")

let test_journal_file_io () =
  let path = Filename.temp_file "xpiler_obs" ".jsonl" in
  Journal.write_file path sample_events;
  Alcotest.(check string) "file holds the encoding" (Journal.encode sample_events)
    (In_channel.with_open_bin path In_channel.input_all);
  (match Journal.read_file path with
  | Ok es -> Alcotest.(check string) "read back" (Journal.encode sample_events) (Journal.encode es)
  | Error m -> Alcotest.fail m);
  Sys.remove path

(* ---- chrome export ----------------------------------------------------------- *)

let test_chrome_export_valid () =
  let s = Chrome.to_string sample_events in
  match Json.parse s with
  | Error m -> Alcotest.fail ("chrome JSON does not parse: " ^ m)
  | Ok j ->
    let events =
      match Json.member "traceEvents" j with
      | Some (Json.List es) -> es
      | _ -> Alcotest.fail "no traceEvents array"
    in
    let phases =
      List.filter_map
        (fun e -> Option.bind (Json.member "ph" e) Json.to_str)
        events
    in
    Alcotest.(check bool) "has complete events" true (List.mem "X" phases);
    Alcotest.(check bool) "has instant" true (List.mem "i" phases);
    Alcotest.(check bool) "has counter track" true (List.mem "C" phases);
    (* seconds -> microseconds: the 12.5 s root span is 12_500_000 us *)
    let root_dur =
      List.find_map
        (fun e ->
          match (Json.member "name" e, Json.member "dur" e) with
          | Some (Json.Str "translate:gemm"), Some d -> Json.to_float d
          | _ -> None)
        events
    in
    Alcotest.(check (option (float 0.5))) "us timebase" (Some 12_500_000.0) root_dur

(* ---- summary ----------------------------------------------------------------- *)

let test_summary_aggregation () =
  let t = Tracer.create () in
  Tracer.with_span t "root" (fun () ->
      Tracer.stage_charge t "smt-solving" 5.0;
      Tracer.stage_charge t "annotation" 1.0;
      Tracer.stage_charge t "annotation" 2.0;
      Tracer.count t ~n:2 "b.ctr";
      Tracer.count t "a.ctr";
      Tracer.observe t "h" 1.0;
      Tracer.observe t "h" 3.0);
  let s = Summary.of_events (Tracer.events t) in
  Alcotest.(check (float 1e-9)) "total = sum of charges" 8.0 s.Summary.total_seconds;
  (* canonical Vclock order with zero stages omitted *)
  Alcotest.(check (list (pair string (float 1e-9)))) "stage rows"
    [ ("annotation", 3.0); ("smt-solving", 5.0) ]
    s.Summary.stages;
  Alcotest.(check (float 1e-9)) "stage_total" 3.0 (Summary.stage_total s "annotation");
  Alcotest.(check (float 1e-9)) "stage_total absent" 0.0 (Summary.stage_total s "unit-test");
  Alcotest.(check (list string)) "counters sorted" [ "a.ctr"; "b.ctr" ]
    (List.map fst s.Summary.counters);
  (match s.Summary.histograms with
  | [ ("h", h) ] ->
    Alcotest.(check int) "hist n" 2 h.Summary.n;
    Alcotest.(check (float 1e-9)) "hist min" 1.0 h.Summary.min;
    Alcotest.(check (float 1e-9)) "hist max" 3.0 h.Summary.max;
    Alcotest.(check (float 1e-9)) "hist mean" 2.0 h.Summary.mean
  | _ -> Alcotest.fail "expected one histogram");
  match s.Summary.spans with
  | [ ("root", 1, d) ] -> Alcotest.(check (float 1e-9)) "root covers charges" 8.0 d
  | _ -> Alcotest.fail "expected one non-stage span"

(* ---- end-to-end: tracing a real translation ---------------------------------- *)

open Xpiler_machine
open Xpiler_ops
open Xpiler_core

let traced_outcome ?(seed = 20250706) () =
  let op = Registry.find_exn "softmax" in
  let shape = List.hd op.Opdef.shapes in
  let config = Config.with_trace (Config.with_seed Config.default seed) Tracer.Detail in
  Xpiler.transcompile ~config ~src:Platform.Cuda ~dst:Platform.Bang ~op ~shape ()

let test_pipeline_stage_totals_match_vclock () =
  let o = traced_outcome () in
  Alcotest.(check bool) "trace recorded" true (o.Xpiler.trace <> []);
  let s = Summary.of_events o.Xpiler.trace in
  (* acceptance criterion: span durations per stage sum to exactly the
     Vclock breakdown — same floats, not just approximately *)
  List.iter
    (fun st ->
      Alcotest.(check (float 0.0))
        (Vclock.stage_name st)
        (Vclock.stage_total o.Xpiler.clock st)
        (Summary.stage_total s (Vclock.stage_name st)))
    Vclock.all_stages;
  Alcotest.(check (float 0.0)) "grand total" (Vclock.elapsed o.Xpiler.clock)
    s.Summary.total_seconds

let test_pipeline_trace_deterministic () =
  let enc o = Journal.encode o.Xpiler.trace in
  let a = enc (traced_outcome ()) and b = enc (traced_outcome ()) in
  Alcotest.(check bool) "byte-identical across runs" true (String.equal a b);
  let c = enc (traced_outcome ~seed:7 ()) in
  Alcotest.(check bool) "seed changes the stream" true (not (String.equal a c))

let test_pipeline_trace_replays () =
  let o = traced_outcome () in
  match Journal.decode (Journal.encode o.Xpiler.trace) with
  | Error m -> Alcotest.fail m
  | Ok es ->
    let live = Summary.of_events o.Xpiler.trace in
    let replayed = Summary.of_events es in
    Alcotest.(check bool) "replayed summary identical" true (live = replayed);
    Alcotest.(check bool) "root span present" true
      (List.exists
         (function
           | Event.Span { cat = "translate"; depth = 0; _ } -> true
           | _ -> false)
         es);
    (* the instrumented layers actually reported in *)
    List.iter
      (fun ctr ->
        Alcotest.(check bool) (ctr ^ " counted") true
          (List.mem_assoc ctr live.Summary.counters))
      [ "llm.attempts"; "pass.applied"; "interp.runs"; "costmodel.evals" ]

let test_pipeline_off_by_default () =
  let op = Registry.find_exn "relu" in
  let shape = List.hd op.Opdef.shapes in
  let o = Xpiler.transcompile ~src:Platform.Cuda ~dst:Platform.Hip ~op ~shape () in
  Alcotest.(check int) "no trace when off" 0 (List.length o.Xpiler.trace)

let () =
  Alcotest.run "obs"
    [ ( "json",
        [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "float exactness" `Quick test_json_float_exact;
          Alcotest.test_case "malformed rejected" `Quick test_json_errors
        ] );
      ( "tracer",
        [ Alcotest.test_case "stage charges advance time" `Quick
            test_tracer_stage_charge_advances;
          Alcotest.test_case "span nesting" `Quick test_tracer_span_nesting;
          Alcotest.test_case "exception unwinds stack" `Quick test_tracer_span_end_unwinds;
          Alcotest.test_case "levels gate metrics" `Quick test_tracer_levels;
          Alcotest.test_case "ambient facade" `Quick test_trace_facade_noop;
          Alcotest.test_case "nested scope restores outer" `Quick test_trace_nested_scope
        ] );
      ( "journal",
        [ Alcotest.test_case "event roundtrip" `Quick test_event_roundtrip;
          Alcotest.test_case "encode/decode" `Quick test_journal_roundtrip;
          Alcotest.test_case "file io" `Quick test_journal_file_io
        ] );
      ("chrome", [ Alcotest.test_case "valid trace JSON" `Quick test_chrome_export_valid ]);
      ("summary", [ Alcotest.test_case "aggregation" `Quick test_summary_aggregation ]);
      ( "pipeline",
        [ Alcotest.test_case "stage totals = vclock breakdown" `Quick
            test_pipeline_stage_totals_match_vclock;
          Alcotest.test_case "deterministic journal" `Quick test_pipeline_trace_deterministic;
          Alcotest.test_case "replay equals live" `Quick test_pipeline_trace_replays;
          Alcotest.test_case "off by default" `Quick test_pipeline_off_by_default
        ] )
    ]
