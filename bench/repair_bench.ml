(* Repair/SMT hot-path benchmark: the pre-overhaul repair stack (naive
   re-checking solver, no memo) vs the overhauled one (incremental
   watched-constraint solver, session memo of [Solver.solve] outcomes;
   the repairer's candidate domains come from [Solver.solve_all], which
   searches afresh on every call) on the resilience workload at matched
   injected-fault rates. Both arms test repair candidates serially and
   localize from the unit-test verdict memo. Writes BENCH_repair.json (schema
   xpiler-repair-bench/v2) into the current directory.

   Usage:
     dune exec bench/repair_bench.exe            # full measurement (x5/x10/x20)
     dune exec bench/repair_bench.exe -- --smoke # seconds-long sanity run

   The smoke run is attached to `dune runtest` via the @repair and
   @bench-smoke aliases. Gates:
   - total fresh solver steps and constraint evaluations must drop >= 2x
     (exact: search work is deterministic, counted on the master domain);
   - the overhauled arm must not end with more broken kernels than the
     baseline (the overhaul changes time, not repair outcomes);
   - in the full run only, repair wall time must also drop >= 2x (wall
     clock flakes on shared CI, so the smoke run records it ungated). *)

open Xpiler_machine
open Xpiler_ops
open Xpiler_core
module Solver = Xpiler_smt.Solver
module Memo = Xpiler_smt.Memo
module Repairer = Xpiler_repair.Repairer

let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv
let now = Unix.gettimeofday

(* the resilience workload: hardest direction (SIMT -> Bang's explicit
   memory hierarchy) plus one more direction for coverage *)
let cells =
  let full =
    [ ("gemm", Platform.Cuda, Platform.Bang);
      ("softmax", Platform.Cuda, Platform.Bang);
      ("relu", Platform.Cuda, Platform.Bang);
      ("gemm", Platform.Cuda, Platform.Vnni) ]
  in
  if smoke then [ ("gemm", Platform.Cuda, Platform.Bang); ("softmax", Platform.Cuda, Platform.Bang) ]
  else full

let fault_scales = if smoke then [ 20.0 ] else [ 5.0; 10.0; 20.0 ]
let n_seeds = if smoke then 8 else 32

type arm_stats = {
  broken : int;  (** end states failing target compile or the unit test *)
  solves : int;  (** fresh solver searches (memo hits excluded) *)
  steps : int;  (** assignment attempts across fresh searches *)
  evals : int;  (** constraint evaluations across fresh searches *)
  repairs : int;
  repair_wall : float;  (** wall seconds inside [Repairer.repair] *)
  solver_wall : float;  (** wall seconds inside fresh solver searches, process-wide *)
  wall_localize : float;
  wall_solve : float;
  wall_test : float;
  wall_score : float;
  memo_hits : int;
  memo_misses : int;
  wall : float;
}

(* a process-lifetime meter read as the change since this call *)
let delta read =
  let v0 = read () in
  fun () -> read () - v0

let run_arm ~engine config_of op_name src dst scale =
  Solver.with_engine engine @@ fun () ->
  let op = Registry.find_exn op_name in
  let shape = List.hd op.Opdef.shapes in
  Memo.clear ();
  Unit_test.reset_memo ();
  let hits = delta Memo.hits and misses = delta Memo.misses in
  let w0 = Solver.work_totals () and r0 = Repairer.wall_totals () in
  let t0 = now () in
  let outcomes =
    List.init n_seeds (fun seed ->
        let config = Config.with_fault_scale (Config.with_seed (config_of ()) seed) scale in
        Xpiler.transcompile ~config ~src ~dst ~op ~shape ())
  in
  let wall = now () -. t0 in
  let work = Solver.work_totals () and rw = Repairer.wall_totals () in
  { broken =
      List.length (List.filter (fun o -> not (Xpiler.accepted o.Xpiler.status)) outcomes);
    solves = work.Solver.fresh_solves - w0.Solver.fresh_solves;
    steps = work.Solver.fresh_steps - w0.Solver.fresh_steps;
    evals = work.Solver.fresh_evals - w0.Solver.fresh_evals;
    repairs = rw.Repairer.repairs - r0.Repairer.repairs;
    repair_wall = rw.Repairer.wall_seconds -. r0.Repairer.wall_seconds;
    solver_wall = work.Solver.fresh_wall -. w0.Solver.fresh_wall;
    wall_localize = rw.Repairer.localize_seconds -. r0.Repairer.localize_seconds;
    wall_solve = rw.Repairer.solve_seconds -. r0.Repairer.solve_seconds;
    wall_test = rw.Repairer.test_seconds -. r0.Repairer.test_seconds;
    wall_score = rw.Repairer.score_seconds -. r0.Repairer.score_seconds;
    memo_hits = hits ();
    memo_misses = misses ();
    wall
  }

(* the headline wall metric: everything the overhaul touches — time inside
   [Repairer.repair] plus fresh solver searches anywhere in the pipeline
   (candidate filtering, synthesis, symbolic fallback), minus the repair-
   internal solver share [wall_solve] already inside both meters *)
let hotpath_wall (a : arm_stats) = a.repair_wall -. a.wall_solve +. a.solver_wall

type row = {
  op_name : string;
  src : Platform.id;
  dst : Platform.id;
  scale : float;
  baseline : arm_stats;
  optimized : arm_stats;
}

let bench_cell scale (op_name, src, dst) =
  (* baseline = the pre-overhaul stack: the naive engine, which bypasses
     the memo *)
  let baseline = run_arm ~engine:Solver.Naive (fun () -> Config.default) op_name src dst scale in
  let optimized =
    run_arm ~engine:Solver.Incremental (fun () -> Config.default) op_name src dst scale
  in
  Printf.printf
    "  %-8s %s->%s x%-4.0f steps %9d -> %7d  evals %10d -> %7d  broken %d -> %d\n%!"
    op_name (Platform.id_to_string src) (Platform.id_to_string dst) scale baseline.steps
    optimized.steps baseline.evals optimized.evals baseline.broken optimized.broken;
  let breakdown tag (a : arm_stats) =
    Printf.printf
    "    %-9s hot-path %6.2fs = solver %5.2fs + localize %5.2fs + test %5.2fs + score %5.2fs \
     + other %5.2fs\n%!"
      tag (hotpath_wall a) a.solver_wall a.wall_localize a.wall_test a.wall_score
      (a.repair_wall -. a.wall_localize -. a.wall_solve -. a.wall_test -. a.wall_score)
  in
  breakdown "baseline" baseline;
  breakdown "optimized" optimized;
  { op_name; src; dst; scale; baseline; optimized }

let json_arm oc label (a : arm_stats) last =
  Printf.fprintf oc
    "      %S: {\"broken\": %d, \"solver_solves\": %d, \"solver_steps\": %d, \
     \"solver_evals\": %d, \"repairs\": %d, \"repair_wall_sec\": %.4f, \
     \"solver_wall_sec\": %.4f, \"hotpath_wall_sec\": %.4f, \
     \"repair_localize_sec\": %.4f, \"repair_solve_sec\": %.4f, \"repair_test_sec\": %.4f, \
     \"repair_score_sec\": %.4f, \"memo_hits\": %d, \
     \"memo_misses\": %d, \"wall_sec\": %.3f}%s\n"
    label a.broken a.solves a.steps a.evals a.repairs a.repair_wall a.solver_wall
    (hotpath_wall a) a.wall_localize
    a.wall_solve a.wall_test a.wall_score a.memo_hits a.memo_misses a.wall
    (if last then "" else ",")

let ratio num den = if den <= 0.0 then Float.infinity else num /. den

let () =
  Printf.printf "repair hot-path benchmark%s\n%!" (if smoke then " (smoke)" else "");
  let rows =
    List.concat_map (fun scale -> List.map (bench_cell scale) cells) fault_scales
  in
  let total f = List.fold_left (fun n r -> n + f r) 0 rows in
  let totalf f = List.fold_left (fun n r -> n +. f r) 0.0 rows in
  let b_steps = total (fun r -> r.baseline.steps)
  and o_steps = total (fun r -> r.optimized.steps)
  and b_evals = total (fun r -> r.baseline.evals)
  and o_evals = total (fun r -> r.optimized.evals)
  and b_broken = total (fun r -> r.baseline.broken)
  and o_broken = total (fun r -> r.optimized.broken)
  and b_wall = totalf (fun r -> hotpath_wall r.baseline)
  and o_wall = totalf (fun r -> hotpath_wall r.optimized) in
  let hits = total (fun r -> r.optimized.memo_hits)
  and misses = total (fun r -> r.optimized.memo_misses) in
  let steps_reduction = ratio (float_of_int b_steps) (float_of_int o_steps) in
  let evals_reduction = ratio (float_of_int b_evals) (float_of_int o_evals) in
  let wall_speedup = ratio b_wall o_wall in
  let memo_hit_rate = ratio (float_of_int hits) (float_of_int (hits + misses)) in
  let gate_steps = steps_reduction >= 2.0 in
  let gate_evals = evals_reduction >= 2.0 in
  let gate_broken = o_broken <= b_broken in
  let gate_wall = smoke || wall_speedup >= 2.0 in
  let oc = open_out "BENCH_repair.json" in
  Printf.fprintf oc "{\n  \"schema\": \"xpiler-repair-bench/v2\",\n  \"smoke\": %b,\n" smoke;
  Printf.fprintf oc "  \"runs_per_cell\": %d,\n" n_seeds;
  Printf.fprintf oc "  \"fault_scales\": [%s],\n"
    (String.concat ", " (List.map (Printf.sprintf "%.1f") fault_scales));
  Printf.fprintf oc "  \"cells\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc "    {\"op\": %S, \"src\": %S, \"dst\": %S, \"fault_scale\": %.1f,\n"
        r.op_name
        (Platform.id_to_string r.src)
        (Platform.id_to_string r.dst)
        r.scale;
      json_arm oc "baseline" r.baseline false;
      json_arm oc "optimized" r.optimized true;
      Printf.fprintf oc "    }%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"total_baseline_steps\": %d,\n  \"total_optimized_steps\": %d,\n"
    b_steps o_steps;
  Printf.fprintf oc "  \"total_baseline_evals\": %d,\n  \"total_optimized_evals\": %d,\n"
    b_evals o_evals;
  Printf.fprintf oc "  \"steps_reduction\": %.4f,\n  \"evals_reduction\": %.4f,\n"
    steps_reduction evals_reduction;
  Printf.fprintf oc
    "  \"baseline_hotpath_wall_sec\": %.4f,\n  \"optimized_hotpath_wall_sec\": %.4f,\n"
    b_wall o_wall;
  Printf.fprintf oc "  \"wall_speedup\": %.4f,\n" wall_speedup;
  Printf.fprintf oc "  \"baseline_broken\": %d,\n  \"optimized_broken\": %d,\n" b_broken
    o_broken;
  Printf.fprintf oc "  \"memo_hit_rate\": %.4f,\n" memo_hit_rate;
  Printf.fprintf oc
    "  \"gate_steps_reduction\": %b,\n  \"gate_evals_reduction\": %b,\n  \
     \"gate_broken\": %b,\n  \"gate_wall\": %b\n}\n"
    gate_steps gate_evals gate_broken gate_wall;
  close_out oc;
  Printf.printf "wrote BENCH_repair.json\n%!";
  Printf.printf
    "solver steps %d -> %d (%.1fx), evals %d -> %d (%.1fx), hot-path wall %.2fs -> %.2fs \
     (%.1fx), broken %d -> %d, memo hit rate %.0f%%\n%!"
    b_steps o_steps steps_reduction b_evals o_evals evals_reduction b_wall o_wall wall_speedup
    b_broken o_broken (memo_hit_rate *. 100.0);
  let fail = ref false in
  if not gate_steps then begin
    Printf.eprintf "GATE FAILED: solver steps must drop >= 2x (got %.2fx)\n%!" steps_reduction;
    fail := true
  end;
  if not gate_evals then begin
    Printf.eprintf "GATE FAILED: constraint evals must drop >= 2x (got %.2fx)\n%!"
      evals_reduction;
    fail := true
  end;
  if not gate_broken then begin
    Printf.eprintf
      "GATE FAILED: the overhauled arm ended with more broken kernels (%d) than the baseline \
       (%d)\n%!"
      o_broken b_broken;
    fail := true
  end;
  if not gate_wall then begin
    Printf.eprintf
      "GATE FAILED: repair/SMT hot-path wall time must drop >= 2x (got %.2fx)\n%!" wall_speedup;
    fail := true
  end;
  if !fail then exit 1
