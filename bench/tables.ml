(* Experiment implementations: one function per table/figure of the paper.
   Each prints paper-shaped rows; EXPERIMENTS.md records paper-vs-measured. *)

open Xpiler_machine
open Xpiler_ops
open Xpiler_core
module Baselines = Xpiler_baselines
module Vclock = Xpiler_util.Vclock
module Pool = Xpiler_util.Pool

let platforms = [ Platform.Cuda; Platform.Bang; Platform.Hip; Platform.Vnni ]

let shapes_per_op () =
  match Sys.getenv_opt "XPILER_BENCH_SHAPES" with
  | Some s -> (try max 1 (min 8 (int_of_string s)) with _ -> 2)
  | None -> 2

let cases () =
  let n = shapes_per_op () in
  List.filter
    (fun (c : Registry.case) ->
      List.exists (fun s -> s == c.shape) (List.filteri (fun i _ -> i < n) c.op.Opdef.shapes))
    (Registry.cases ())

let pct num den = if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let header title =
  Printf.printf "\n=== %s ===\n%!" title

(* ---- Table 5: the evaluated benchmark -------------------------------------- *)

let table5 () =
  header "Table 5: evaluated benchmark (lines of code per interface, first shape)";
  Printf.printf "%-13s %-22s | %7s %7s %7s %12s\n" "Type" "Operator" "CUDA C" "BANG C" "HIP"
    "C w/ VNNI";
  List.iter
    (fun (op : Opdef.t) ->
      let shape = List.hd op.Opdef.shapes in
      let loc pid = Xpiler_lang.Codegen.lines_of_code (Idiom.source_text pid op shape) in
      Printf.printf "%-13s %-22s | %7d %7d %7d %12d\n%!" (Opdef.class_name op.Opdef.cls)
        op.Opdef.name (loc Platform.Cuda) (loc Platform.Bang) (loc Platform.Hip)
        (loc Platform.Vnni))
    Registry.all;
  Printf.printf "%d operators x 8 shapes = %d test cases\n%!" (List.length Registry.all)
    (List.length (Registry.cases ()))

(* ---- Table 2: single-step GPT-4 error breakdown (CUDA -> BANG) ------------- *)

let table2 () =
  header "Table 2: breakdown of unsuccessful GPT-4 transcompilations, CUDA C -> BANG C (%)";
  let run m =
    let cs = cases () in
    let total = List.length cs in
    let compile_fail = ref 0 and compute_fail = ref 0 in
    let cf_cat = Hashtbl.create 4 and xf_cat = Hashtbl.create 4 in
    let bump tbl cat =
      Hashtbl.replace tbl cat (1 + Option.value ~default:0 (Hashtbl.find_opt tbl cat))
    in
    (* translations are independent; evaluate on the pool (case order kept),
       then fold the counters sequentially *)
    let rs =
      Pool.map
        (fun (c : Registry.case) ->
          Baselines.Llm_baseline.translate m ~src:Platform.Cuda ~dst:Platform.Bang ~op:c.op
            ~shape:c.shape)
        cs
    in
    List.iter
      (fun (r : Baselines.Llm_baseline.result) ->
        if not r.compiles then begin
          incr compile_fail;
          List.iter
            (fun cat ->
              match cat with
              | `Parallelism -> bump cf_cat "parallelism"
              | `Memory -> bump cf_cat "memory"
              | `Instruction -> bump cf_cat "instruction"
              | `Structural -> bump cf_cat "structural")
            r.compile_errors
        end
        else if not r.computes then begin
          incr compute_fail;
          List.iter
            (fun (cat : Xpiler_neural.Fault.category) ->
              bump xf_cat (Xpiler_neural.Fault.category_name cat))
            r.fault_categories
        end)
      rs;
    let get tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
    Printf.printf
      "%-22s | compile-fail: total %5.1f%% (parallelism %d, memory %d, instruction %d)\n"
      (Baselines.Llm_baseline.method_name m)
      (pct !compile_fail total)
      (get cf_cat "parallelism") (get cf_cat "memory") (get cf_cat "instruction");
    Printf.printf
      "%-22s | compute-fail: total %5.1f%% (parallelism %d, memory %d, instruction %d)\n%!"
      "" (pct !compute_fail total)
      (get xf_cat "parallelism") (get xf_cat "memory") (get xf_cat "instruction")
  in
  run Baselines.Llm_baseline.Gpt4_zero;
  run Baselines.Llm_baseline.Gpt4_few

(* ---- Table 3: sketch-level vs detail-level synthesis cost ------------------- *)

let table3 () =
  header "Table 3: search-based synthesis, high-level sketches vs low-level details";
  (* detail-level: fill the split factor hole of a loop-split (Figure 5) *)
  let t0 = Unix.gettimeofday () in
  let detail =
    Xpiler_smt.Synth.fill_holes
      ~holes:[ ("?f", Xpiler_smt.Solver.Enum (Xpiler_smt.Solver.divisors 512)) ]
      ~sketch:Xpiler_ir.Expr.(Binop (Mul, Var "?f", Var "outer"))
      ~examples:
        [ { env = [ ("outer", 8) ]; expected = 512 };
          { env = [ ("outer", 4) ]; expected = 256 } ]
      ()
  in
  let detail_time = Unix.gettimeofday () -. t0 in
  let t1 = Unix.gettimeofday () in
  (* sketch-level: recover the whole index expression i*K + k from examples *)
  let sketch, tried =
    Xpiler_smt.Synth.enumerate_affine ~vars:[ "i"; "k" ] ~consts:[ 2; 4; 8; 16; 32; 64 ]
      ~examples:
        [ { env = [ ("i", 0); ("k", 0) ]; expected = 0 };
          { env = [ ("i", 1); ("k", 0) ]; expected = 32 };
          { env = [ ("i", 1); ("k", 5) ]; expected = 37 };
          { env = [ ("i", 3); ("k", 7) ]; expected = 103 } ]
      ()
  in
  let sketch_time = Unix.gettimeofday () -. t1 in
  (match detail.Xpiler_smt.Synth.outcome with
  | Xpiler_smt.Solver.Sat model ->
    Printf.printf "low-level details  (SMT query)        : solved ?f=%d in %d steps, %.4fs  [+]\n"
      (List.assoc "?f" model) detail.Xpiler_smt.Synth.stats.Xpiler_smt.Solver.steps detail_time
  | _ -> Printf.printf "low-level details: UNSAT\n");
  (match sketch with
  | Some e ->
    Printf.printf
      "high-level sketch  (verified lifting)  : found %s after %d candidates, %.4fs  [+++]\n%!"
      (Xpiler_ir.Expr.to_string e) tried sketch_time
  | None -> Printf.printf "high-level sketch: not found after %d candidates\n%!" tried);
  Printf.printf "candidate-count ratio (sketch / detail): %.0fx\n%!"
    (float_of_int tried /. float_of_int (max 1 detail.Xpiler_smt.Synth.stats.Xpiler_smt.Solver.steps))

(* ---- Table 6: accuracy across directions and methods ------------------------ *)

type method_kind =
  | Llm of Baselines.Llm_baseline.method_
  | Xpiler of Config.t

let table6_methods =
  [ Llm Baselines.Llm_baseline.Gpt4_zero;
    Llm Baselines.Llm_baseline.O1_zero;
    Llm Baselines.Llm_baseline.Gpt4_few;
    Llm Baselines.Llm_baseline.O1_few;
    Xpiler Config.without_smt;
    Xpiler Config.without_smt_self_debug;
    Xpiler Config.default ]

let method_label = function
  | Llm m -> Baselines.Llm_baseline.method_name m
  | Xpiler c -> (
    match c.Config.name with
    | "qimeng-xpiler" -> "QiMeng-Xpiler"
    | "qimeng-xpiler-wo-smt" -> "QiMeng-Xpiler w/o SMT"
    | "qimeng-xpiler-wo-smt+self-debug" -> "QiMeng-Xpiler w/o SMT + Self-Debugging"
    | n -> n)

(* compiled, computed *)
let evaluate m ~src ~dst (c : Registry.case) =
  match m with
  | Llm lm ->
    let r = Baselines.Llm_baseline.translate lm ~src ~dst ~op:c.op ~shape:c.shape in
    (r.compiles, r.computes)
  | Xpiler config -> (
    let o = Xpiler.transcompile ~config ~src ~dst ~op:c.op ~shape:c.shape () in
    match o.status with
    | Xpiler.Success | Xpiler.Degraded -> (true, true)
    | Xpiler.Computation_error _ -> (true, false)
    | Xpiler.Compile_error _ -> (false, false))

(* (compile %, computation %) of every run, in [runs] order. Each case is one
   pool task that translates it for every run, so a case's reference outputs
   and verdicts are computed once in the task's session and reused across
   methods and directions. A pool task has no ambient tracer, so journals
   are byte-stable under --jobs. *)
let eval_runs runs =
  let cs = cases () in
  let total = List.length cs in
  let per_case =
    Pool.map
      (fun c -> Array.of_list (List.map (fun (m, src, dst) -> evaluate m ~src ~dst c) runs))
      cs
  in
  List.mapi
    (fun i _ ->
      let count f = List.length (List.filter (fun a -> f a.(i)) per_case) in
      (pct (count fst) total, pct (count snd) total))
    runs

let eval_direction m ~src ~dst = List.hd (eval_runs [ (m, src, dst) ])

let table6 () =
  header
    (Printf.sprintf "Table 6: compilation / computation accuracy by direction (%%), %d cases per direction"
       (List.length (cases ())));
  let dsts_of src = List.filter (fun d -> d <> src) platforms in
  let runs =
    List.concat_map
      (fun src ->
        List.concat_map (fun m -> List.map (fun dst -> (m, src, dst)) (dsts_of src)) table6_methods)
      platforms
  in
  let scores = Array.of_list (eval_runs runs) in
  let n_methods = List.length table6_methods in
  List.iteri
    (fun si src ->
      let dsts = dsts_of src in
      let n_dsts = List.length dsts in
      let rows =
        List.mapi
          (fun mi m ->
            ( method_label m,
              List.init n_dsts (fun di ->
                  let cmp, cpt = scores.((((si * n_methods) + mi) * n_dsts) + di) in
                  Report.Pair (cmp, cpt)) ))
          table6_methods
      in
      let report =
        Report.make
          ~title:
            (Printf.sprintf "Source: %s (compile / computation accuracy %%)"
               (Platform.of_id src).Platform.interface)
          ~cols:(List.map Platform.id_to_string dsts)
          rows
      in
      print_newline ();
      print_string (Report.render report);
      let path = Report.save_csv ~name:("table6_" ^ Platform.id_to_string src) report in
      Printf.printf "[saved %s]\n%!" path)
    platforms

(* ---- Table 7: rule-based comparison ------------------------------------------ *)

let table7 () =
  header "Table 7: accuracy comparison to rule-based methods (%)";
  let cs = cases () in
  let total = List.length cs in
  (* HIPIFY: CUDA -> HIP *)
  let h_compiled = ref 0 and h_computed = ref 0 in
  List.iter
    (fun (c : Registry.case) ->
      let r = Baselines.Hipify.translate c.op c.shape in
      if r.compiles then incr h_compiled;
      if r.computes then incr h_computed)
    cs;
  let x_cmp, x_cpt = eval_direction (Xpiler Config.default) ~src:Platform.Cuda ~dst:Platform.Hip in
  Printf.printf "CUDA C -> HIP     | HIPIFY        : compile %5.1f  computation %5.1f\n"
    (pct !h_compiled total) (pct !h_computed total);
  Printf.printf "CUDA C -> HIP     | QiMeng-Xpiler : compile %5.1f  computation %5.1f\n" x_cmp x_cpt;
  (* PPCG: C -> CUDA *)
  let p_compiled = ref 0 and p_computed = ref 0 in
  List.iter
    (fun (c : Registry.case) ->
      let r = Baselines.Ppcg.translate c.op c.shape in
      if r.compiles then incr p_compiled;
      if r.computes then incr p_computed)
    cs;
  let c_cmp, c_cpt =
    eval_direction (Xpiler Config.default) ~src:Platform.Vnni ~dst:Platform.Cuda
  in
  Printf.printf "C -> CUDA C       | PPCG          : compile %5.1f  computation %5.1f\n"
    (pct !p_compiled total) (pct !p_computed total);
  Printf.printf "C -> CUDA C       | QiMeng-Xpiler : compile %5.1f  computation %5.1f\n%!" c_cmp c_cpt

(* ---- Table 8: productivity ----------------------------------------------------- *)

let table8 () =
  header "Table 8: productivity improvement (Deformable Attention)";
  List.iter
    (fun (src, dst, label) ->
      Printf.printf "\nDirection: %s\n" label;
      List.iter
        (fun (e : Baselines.Productivity.entry) ->
          Printf.printf
            "  %-13s manual %6.1f h (perf %6.1f%%) | w/ QiMeng-Xpiler %5.2f h%s (perf %6.1f%%) | time saving ~%.1fx\n%!"
            (Baselines.Productivity.coder_name e.coder)
            e.manual_hours (100.0 *. e.manual_perf) e.xpiler_hours
            (if e.xpiler_correct then "" else " + debug")
            (100.0 *. e.xpiler_perf) e.time_saving)
        (Baselines.Productivity.study ~src ~dst ()))
    [ (Platform.Cuda, Platform.Bang, "CUDA C -> BANG C");
      (Platform.Vnni, Platform.Cuda, "C with VNNI -> CUDA C") ]

(* ---- Figure 7: performance vs vendor libraries ---------------------------------- *)

(* Cases grouped into runs of one operator, in case order: each group is one
   pool task, so the operator's reference outputs are computed once in the
   task's session. *)
let by_operator cases =
  List.fold_right
    (fun (c : Registry.case) groups ->
      match groups with
      | ((c' : Registry.case) :: _ as g) :: rest when c'.op == c.op -> (c :: g) :: rest
      | _ -> [ c ] :: groups)
    cases []

let fig7 () =
  header
    "Figure 7: translated-program performance vs vendor libraries (speedup, 1.0 = parity)";
  let directions =
    [ (Platform.Vnni, Platform.Cuda, "C w/ VNNI -> CUDA C (vs cuBLAS/cuDNN)");
      (Platform.Cuda, Platform.Bang, "CUDA C -> BANG C (vs CNNL)");
      (Platform.Cuda, Platform.Hip, "CUDA C -> HIP (vs rocBLAS/MIOpen)");
      (Platform.Cuda, Platform.Vnni, "CUDA C -> C w/ VNNI (vs oneDNN)") ]
  in
  let classes =
    [ Opdef.Matmul; Opdef.Convolution; Opdef.Activation; Opdef.Pooling; Opdef.Elementwise;
      Opdef.Llm ]
  in
  let speedup src dst (c : Registry.case) =
    let o = Xpiler.transcompile ~config:Config.tuned ~src ~dst ~op:c.op ~shape:c.shape () in
    match (o.Xpiler.status, o.Xpiler.kernel) with
    | (Xpiler.Success | Xpiler.Degraded), Some k ->
      Some (Baselines.Vendor.speedup_of_translated dst c.op c.shape k)
    | _ -> None
  in
  (* one task per operator runs every direction, so the operator's
     reference outputs are computed once in the task's session *)
  let groups = by_operator (cases ()) in
  let per_group =
    Pool.map
      (fun group -> List.map (fun (src, dst, _) -> List.map (speedup src dst) group) directions)
      groups
  in
  let all_speedups = ref [] in
  let csv_rows = ref [] in
  List.iteri
    (fun di (src, dst, label) ->
      Printf.printf "\n%s\n" label;
      List.iter
        (fun cls ->
          let class_cases =
            List.filter (fun (c : Registry.case) -> c.op.Opdef.cls = cls) (cases ())
          in
          let speedups =
            List.concat
              (List.filter_map
                 (fun ((group : Registry.case list), per_dir) ->
                   if (List.hd group).op.Opdef.cls = cls then Some (List.nth per_dir di) else None)
                 (List.combine groups per_group))
            |> List.filter_map Fun.id
          in
          let correct = List.length speedups in
          all_speedups := speedups @ !all_speedups;
          let geomean xs =
            match xs with
            | [] -> 0.0
            | xs ->
              exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))
          in
          let mx = List.fold_left Float.max 0.0 speedups in
          csv_rows :=
            !csv_rows
            @ [ ( Printf.sprintf "%s->%s %s" (Platform.id_to_string src)
                    (Platform.id_to_string dst) (Opdef.class_name cls),
                  [ Report.Ratio (geomean speedups); Report.Ratio mx; Report.Count correct;
                    Report.Count (List.length class_cases) ] ) ];
          Printf.printf "  %-12s: geomean %5.2fx  max %5.2fx  (correct %d/%d)\n%!"
            (Opdef.class_name cls) (geomean speedups) mx correct (List.length class_cases))
        classes)
    directions;
  let report =
    Report.make ~title:"Figure 7: speedup vs vendor libraries"
      ~cols:[ "geomean"; "max"; "correct"; "cases" ]
      !csv_rows
  in
  Printf.printf "[saved %s]\n%!" (Report.save_csv ~name:"fig7" report);
  let xs = !all_speedups in
  let geomean =
    match xs with
    | [] -> 0.0
    | xs -> exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))
  in
  Printf.printf "\nOverall: geomean %.2fx, max %.2fx (paper: average 0.78x, up to 2.00x)\n%!"
    geomean
    (List.fold_left Float.max 0.0 xs)

(* ---- Figure 8: compilation-time breakdown ----------------------------------------- *)

let fig8 () =
  header "Figure 8: compilation-time breakdown, CUDA C -> BANG C (modelled hours)";
  let ops = [ "relu"; "add"; "softmax"; "layernorm"; "gemm"; "self_attention" ] in
  Printf.printf "%-16s %10s | %s\n" "operator" "total(h)"
    (String.concat " " (List.map (fun s -> Printf.sprintf "%14s" (Vclock.stage_name s)) Vclock.all_stages));
  List.iter
    (fun name ->
      let op = Registry.find_exn name in
      let shape = List.hd op.Opdef.shapes in
      let o =
        Xpiler.transcompile ~config:Config.tuned ~src:Platform.Cuda ~dst:Platform.Bang ~op
          ~shape ()
      in
      let clock = o.Xpiler.clock in
      let hours s = Vclock.stage_total clock s /. 3600.0 in
      Printf.printf "%-16s %10.2f | %s\n%!" name
        (Vclock.elapsed clock /. 3600.0)
        (String.concat " " (List.map (fun s -> Printf.sprintf "%14.3f" (hours s)) Vclock.all_stages)))
    ops

(* ---- §5.1: intra-pass search-space sizes -------------------------------------------- *)

let space () =
  header "Intra-pass search-space size (Matmul 512x512x512, paper: GPU ~150, MLU ~10)";
  let gemm = Registry.find_exn "gemm" in
  let shape = [ ("m", 512); ("n", 512); ("k", 512) ] in
  let serial = gemm.Opdef.serial shape in
  List.iter
    (fun pid ->
      let p = Platform.of_id pid in
      Printf.printf "  %-28s: %d candidate configurations\n%!" p.Platform.name
        (Xpiler_tuning.Knobs.space_size p serial))
    [ Platform.Cuda; Platform.Bang ]

(* ---- §5.2: MCTS design-space exploration --------------------------------------------- *)

let mcts_dse () =
  header "MCTS design-space exploration (reward vs depth and simulation budget)";
  let gemm = Registry.find_exn "gemm" in
  let shape = List.hd gemm.Opdef.shapes in
  let serial = gemm.Opdef.serial shape in
  let buffer_sizes =
    List.map (fun (b : Opdef.buffer_spec) -> (b.buf_name, b.size shape)) gemm.Opdef.buffers
  in
  Printf.printf "%8s %12s %14s %14s %8s\n" "depth" "simulations" "root reward" "best reward" "gain";
  List.iter
    (fun (depth, sims) ->
      let config =
        { Xpiler_tuning.Mcts.default_config with max_depth = depth; simulations = sims }
      in
      let r =
        Xpiler_tuning.Mcts.search ~config ~buffer_sizes ~platform:Platform.bang serial
      in
      Printf.printf "%8d %12d %14.3g %14.3g %7.1fx\n%!" depth sims
        r.Xpiler_tuning.Mcts.root_reward r.Xpiler_tuning.Mcts.best_reward
        (r.Xpiler_tuning.Mcts.best_reward /. Float.max r.Xpiler_tuning.Mcts.root_reward 1e-9))
    [ (2, 16); (4, 16); (6, 32); (8, 64); (13, 128) ]
