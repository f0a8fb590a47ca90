(* Auto-tuner search-efficiency benchmark: the pre-PR brute-force search
   (no pruning, no composed candidates, no transposition sharing, no warm
   start) vs the overhauled one, on the same seeds. Writes
   BENCH_tuning.json (schema xpiler-tuning-bench/v2) into the current
   directory.

   Usage:
     dune exec bench/tuning_bench.exe            # full measurement
     dune exec bench/tuning_bench.exe -- --smoke # seconds-long sanity run

   The smoke run is attached to `dune runtest` via the @bench-smoke alias;
   its correctness gates always run: bound-based pruning must be lossless
   (pruned and exhaustive intra tuning find the same best throughput) and
   the overhauled search's best reward must never be worse than the
   baseline's on any benchmarked kernel.

   The headline metric is *reward evaluations* — actual Intra.tune runs,
   metered by Transposition.evals — needed to reach the baseline's final
   best reward. Search is deterministic, so the curves are reproducible.

   The store_warm_start section measures the durable knowledge store
   (Xpiler_store): a first "process" tunes a kernel with the store
   attached, the in-memory tables are then cleared (process death), and a
   second cold process re-tunes the same kernel either from the persisted
   store or from nothing. The warm arm must reach the cold arm's final
   best reward in strictly fewer fresh evaluations — that gate always
   runs, smoke included. *)

open Xpiler_machine
open Xpiler_ops
open Xpiler_tuning
module Listx = Xpiler_util.Listx

let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv
let now = Unix.gettimeofday

(* matmul (the paper's headline tuning target), convolution and a reduction *)
let bench_ops = [ "gemm"; "conv2d_nhwc"; "softmax" ]
let budgets = if smoke then [ 2; 4; 8 ] else [ 4; 8; 16; 32; 64 ]
let platform = Platform.bang

let base_config budget =
  { Mcts.default_config with
    simulations = budget;
    max_depth = 6;
    intra_candidates = 12;
    root_parallel = 4
  }

type point = { sims : int; evals : int; best : float; wall : float }

let run_search ~mode_config ~share ~db ~buffer_sizes kernel budget =
  Transposition.clear ();
  let evals0 = Transposition.evals () in
  let t0 = now () in
  let r =
    Mcts.search ~config:(mode_config budget) ~buffer_sizes ~share ?db ~platform kernel
  in
  { sims = budget; evals = Transposition.evals () - evals0; best = r.Mcts.best_reward;
    wall = now () -. t0 }

(* first curve point whose reward reaches [target]; None when the curve
   never gets there *)
let evals_to curve target =
  List.find_opt (fun p -> p.best >= target) curve |> Option.map (fun p -> p.evals)

type row = {
  op_name : string;
  baseline : point list;
  tuned : point list;
  target : float;
  base_evals : int;
  tuned_evals : int option;
  prune_stats : Intra.stats;
  prune_lossless : bool;
  tuned_best : float;
}

let bench_op name =
  let op = Registry.find_exn name in
  let shapes = op.Opdef.shapes in
  let shape_a = List.hd shapes in
  (* warm-start priming uses a *different* shape of the same operator when
     the registry has one: the schedule database keys on structure, so the
     recorded specs must transfer across shapes to be useful *)
  let shape_b = match shapes with _ :: s :: _ -> s | _ -> shape_a in
  let kernel = op.Opdef.serial shape_a in
  let kernel_b = op.Opdef.serial shape_b in
  let buffer_sizes =
    List.map (fun (b : Opdef.buffer_spec) -> (b.buf_name, b.size shape_a)) op.Opdef.buffers
  in
  (* intra-level pruning: lossless by construction, counted for the report *)
  let exhaustive, _ =
    Intra.tune ~prune:false ~compose:true ~max_candidates:64 ~platform kernel
  in
  let pruned_v, prune_stats =
    Intra.tune ~prune:true ~compose:true ~max_candidates:64 ~platform kernel
  in
  let prune_lossless = pruned_v.Intra.throughput = exhaustive.Intra.throughput in
  if not prune_lossless then begin
    Printf.eprintf "pruning changed the intra result on %s: %.6g vs %.6g\n" name
      pruned_v.Intra.throughput exhaustive.Intra.throughput;
    exit 1
  end;
  (* pre-PR baseline: exhaustive intra, private reward caches, cold start *)
  let baseline_config budget = { (base_config budget) with Mcts.prune = false; compose = false } in
  let baseline =
    List.map
      (fun b -> run_search ~mode_config:baseline_config ~share:false ~db:None ~buffer_sizes kernel b)
      budgets
  in
  let target = (List.hd (List.rev baseline)).best in
  (* overhauled search: prune + compose + shared table + warm start. The
     priming search stands for the *previous* translation of a similar
     kernel (same operator, different shape); its cost is that translation's,
     not this one's, so each measured budget starts from a freshly primed
     database rather than compounding its own results. *)
  let prime =
    let db = Schedule_db.create () in
    ignore
      (Mcts.search ~config:(base_config (List.hd (List.rev budgets))) ~buffer_sizes
         ~share:true ~db ~platform kernel_b);
    Schedule_db.lookup db platform.Platform.id kernel
  in
  let tuned =
    List.map
      (fun b ->
        let db = Schedule_db.create () in
        (match prime with
        | Some specs ->
          Schedule_db.record db platform.Platform.id kernel ~specs ~reward:1.0
        | None -> ());
        run_search ~mode_config:base_config ~share:true ~db:(Some db) ~buffer_sizes kernel b)
      budgets
  in
  (* never-worse gate over the whole sweep: every tuned point is an
     independent run at a budget no larger than the baseline's largest *)
  let tuned_best = List.fold_left (fun acc p -> Float.max acc p.best) 0.0 tuned in
  if tuned_best < target then
    Printf.eprintf "FAIL: search overhaul lost reward on %s: %.6g < %.6g\n" name
      tuned_best target;
  let base_evals =
    match evals_to baseline target with Some e -> e | None -> assert false
  in
  let tuned_evals = evals_to tuned target in
  Printf.printf
    "%-12s target %.4g | baseline %4d evals | tuned %s evals | intra pruned %d/%d\n%!"
    name target base_evals
    (match tuned_evals with Some e -> Printf.sprintf "%4d" e | None -> "  na")
    prune_stats.Intra.pruned
    (prune_stats.Intra.evaluated + prune_stats.Intra.pruned);
  { op_name = name; baseline; tuned; target; base_evals; tuned_evals; prune_stats;
    prune_lossless; tuned_best }

(* ---- durable-store warm start -------------------------------------------

   Cold-process experiment: "process 1" tunes the kernel with the durable
   store attached (every learned transposition entry and schedule-DB record
   streams to the write-ahead log), then every in-memory table is cleared —
   the moral equivalent of the process dying. "Process 2" re-tunes the same
   kernel per budget, either after replaying the persisted store (warm) or
   from empty tables (cold). Fresh reward evaluations are the meter; replay
   is silent, so restored entries never inflate it. *)

module Store = Xpiler_store.Store

type warm_row = {
  w_op : string;
  w_target : float;
  cold : point list;
  warm : point list;
  cold_evals : int;
  warm_evals : int option;
  store_records : int;
}

let remove_flat_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let bench_store_warm name =
  let op = Registry.find_exn name in
  let shape = List.hd op.Opdef.shapes in
  let kernel = op.Opdef.serial shape in
  let buffer_sizes =
    List.map (fun (b : Opdef.buffer_spec) -> (b.buf_name, b.size shape)) op.Opdef.buffers
  in
  let top = List.hd (List.rev budgets) in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xpiler-tuning-store-%d-%s" (Unix.getpid ()) name)
  in
  remove_flat_dir dir;
  let store =
    match Store.open_store ~dir () with Ok s -> s | Error m -> failwith ("store: " ^ m)
  in
  (* process 1: tune at the top budget with the store write-through attached *)
  let db1 = Schedule_db.create () in
  Store.attach ~db:db1 store;
  Transposition.clear ();
  ignore (Mcts.search ~config:(base_config top) ~buffer_sizes ~share:true ~db:db1 ~platform kernel);
  Store.detach ();
  let info = Store.scan store in
  let store_records = Store.total info.Store.records in
  (* process death: no in-memory state survives into either measured arm *)
  let cold =
    List.map
      (fun b ->
        let db = Schedule_db.create () in
        run_search ~mode_config:base_config ~share:true ~db:(Some db) ~buffer_sizes kernel b)
      budgets
  in
  let target = (List.hd (List.rev cold)).best in
  let warm =
    List.map
      (fun b ->
        Transposition.clear ();
        let db = Schedule_db.create () in
        ignore (Store.load ~db store);
        let evals0 = Transposition.evals () in
        let t0 = now () in
        let r = Mcts.search ~config:(base_config b) ~buffer_sizes ~share:true ~db ~platform kernel in
        { sims = b; evals = Transposition.evals () - evals0; best = r.Mcts.best_reward;
          wall = now () -. t0 })
      budgets
  in
  remove_flat_dir dir;
  let cold_evals =
    match evals_to cold target with Some e -> e | None -> assert false
  in
  let warm_evals = evals_to warm target in
  (match warm_evals with
  | Some w when w < cold_evals -> ()
  | Some w ->
    Printf.eprintf "FAIL: warm start from the store did not save evals on %s: %d >= %d\n"
      name w cold_evals
  | None ->
    Printf.eprintf "FAIL: warm start from the store never reached %.6g on %s\n" target name);
  Printf.printf
    "%-12s store warm start: %4d cold evals | %s warm evals | %d persisted record(s)\n%!"
    name cold_evals
    (match warm_evals with Some e -> Printf.sprintf "%4d" e | None -> "  na")
    store_records;
  { w_op = name; w_target = target; cold; warm; cold_evals; warm_evals; store_records }

let warm_row_ok r = match r.warm_evals with Some w -> w < r.cold_evals | None -> false

let json_curve oc points =
  List.iteri
    (fun i p ->
      Printf.fprintf oc
        "        {\"simulations\": %d, \"evals\": %d, \"best_reward\": %.6e, \"wall_sec\": %.4f}%s\n"
        p.sims p.evals p.best p.wall
        (if i = List.length points - 1 then "" else ","))
    points

let () =
  Printf.printf "auto-tuner search-efficiency benchmark%s\n%!" (if smoke then " (smoke)" else "");
  let rows = List.map bench_op bench_ops in
  let warm_rows = List.map bench_store_warm bench_ops in
  let oc = open_out "BENCH_tuning.json" in
  Printf.fprintf oc "{\n  \"schema\": \"xpiler-tuning-bench/v2\",\n  \"smoke\": %b,\n" smoke;
  Printf.fprintf oc "  \"budgets\": [%s],\n"
    (String.concat ", " (List.map string_of_int budgets));
  Printf.fprintf oc "  \"kernels\": [\n";
  List.iteri
    (fun i r ->
      let reduction =
        match r.tuned_evals with
        | Some e -> 1.0 -. (float_of_int e /. float_of_int r.base_evals)
        | None -> 0.0
      in
      Printf.fprintf oc "    {\"op\": %S,\n" r.op_name;
      Printf.fprintf oc "      \"target_reward\": %.6e,\n" r.target;
      Printf.fprintf oc "      \"baseline\": [\n";
      json_curve oc r.baseline;
      Printf.fprintf oc "      ],\n      \"tuned\": [\n";
      json_curve oc r.tuned;
      Printf.fprintf oc "      ],\n";
      Printf.fprintf oc "      \"baseline_evals_to_target\": %d,\n" r.base_evals;
      (match r.tuned_evals with
      | Some e -> Printf.fprintf oc "      \"tuned_evals_to_target\": %d,\n" e
      | None -> Printf.fprintf oc "      \"tuned_evals_to_target\": null,\n");
      Printf.fprintf oc "      \"eval_reduction\": %.3f,\n" reduction;
      Printf.fprintf oc "      \"best_reward_ratio\": %.4f,\n" (r.tuned_best /. r.target);
      Printf.fprintf oc
        "      \"intra_pruning\": {\"evaluated\": %d, \"pruned\": %d, \"lossless\": %b}}%s\n"
        r.prune_stats.Intra.evaluated r.prune_stats.Intra.pruned r.prune_lossless
        (if i = List.length rows - 1 then "" else ",")
      )
    rows;
  Printf.fprintf oc "  ],\n";
  let warm_reduction r =
    match r.warm_evals with
    | Some w when r.cold_evals > 0 -> 1.0 -. (float_of_int w /. float_of_int r.cold_evals)
    | _ -> 0.0
  in
  Printf.fprintf oc "  \"store_warm_start\": {\n    \"kernels\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc "      {\"op\": %S,\n" r.w_op;
      Printf.fprintf oc "        \"target_reward\": %.6e,\n" r.w_target;
      Printf.fprintf oc "        \"store_records\": %d,\n" r.store_records;
      Printf.fprintf oc "        \"cold\": [\n";
      json_curve oc r.cold;
      Printf.fprintf oc "        ],\n        \"warm\": [\n";
      json_curve oc r.warm;
      Printf.fprintf oc "        ],\n";
      Printf.fprintf oc "        \"cold_evals_to_target\": %d,\n" r.cold_evals;
      (match r.warm_evals with
      | Some e -> Printf.fprintf oc "        \"warm_evals_to_target\": %d,\n" e
      | None -> Printf.fprintf oc "        \"warm_evals_to_target\": null,\n");
      Printf.fprintf oc "        \"warm_reduction\": %.3f}%s\n" (warm_reduction r)
        (if i = List.length warm_rows - 1 then "" else ","))
    warm_rows;
  Printf.fprintf oc "    ],\n    \"warm_reduction_mean\": %.3f\n  }\n"
    (List.fold_left (fun a r -> a +. warm_reduction r) 0.0 warm_rows
    /. float_of_int (List.length warm_rows));
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "wrote BENCH_tuning.json\n%!";
  if
    List.exists (fun r -> r.tuned_best < r.target || not r.prune_lossless) rows
    || not (List.for_all warm_row_ok warm_rows)
  then exit 1
