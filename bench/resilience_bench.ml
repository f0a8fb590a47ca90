(* Resilience benchmark: broken-end-state rate of the pre-PR seed pipeline
   (commit-on-Gave_up, no escalation ladder) vs the resilient pipeline
   (hinted re-prompt -> SMT repair -> symbolic fallback -> skip-with-
   rollback), at matched injected-fault rates on the same seeds. Writes
   BENCH_resilience.json (schema xpiler-resilience-bench/v1) into the
   current directory.

   Usage:
     dune exec bench/resilience_bench.exe            # full measurement
     dune exec bench/resilience_bench.exe -- --smoke # seconds-long sanity run

   The smoke run is attached to `dune runtest` via the @bench-smoke alias
   and gates the PR's headline claim: at matched fault rates the ladder must
   end with *strictly fewer* broken kernels than the seed pipeline. Both
   arms are deterministic per seed, so the gate is reproducible. *)

open Xpiler_machine
open Xpiler_ops
open Xpiler_core

let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv
let now = Unix.gettimeofday

(* the paper's headline translation target plus a reduction and an
   elementwise op, in the hardest direction (SIMT -> Bang's explicit memory
   hierarchy) and one more direction for coverage *)
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
let n_seeds = if smoke then 10 else 32

type arm_stats = {
  broken : int;  (** end states failing target compile or the unit test *)
  degraded : int;  (** accepted, but with one or more passes rolled back *)
  skipped_passes : int;  (** total passes skipped across the arm's runs *)
  attempts : int;  (** total LLM calls spent (ledger sum) *)
  wall : float;
}

let run_arm config_of op_name src dst scale =
  let op = Registry.find_exn op_name in
  let shape = List.hd op.Opdef.shapes in
  let t0 = now () in
  let outcomes =
    List.init n_seeds (fun seed ->
        let config = Config.with_fault_scale (Config.with_seed (config_of ()) seed) scale in
        Xpiler.transcompile ~config ~src ~dst ~op ~shape ())
  in
  { broken =
      List.length (List.filter (fun o -> not (Xpiler.accepted o.Xpiler.status)) outcomes);
    degraded =
      List.length (List.filter (fun o -> o.Xpiler.status = Xpiler.Degraded) outcomes);
    skipped_passes =
      List.fold_left (fun n o -> n + List.length o.Xpiler.skipped_passes) 0 outcomes;
    attempts =
      List.fold_left
        (fun n o ->
          List.fold_left (fun n (e : Ledger.entry) -> n + e.Ledger.attempts) n o.Xpiler.ledger)
        0 outcomes;
    wall = now () -. t0
  }

type row = {
  op_name : string;
  src : Platform.id;
  dst : Platform.id;
  scale : float;
  seed_arm : arm_stats;
  ladder_arm : arm_stats;
}

let bench_cell scale (op_name, src, dst) =
  let seed_arm = run_arm (fun () -> Config.seed_pipeline) op_name src dst scale in
  let ladder_arm = run_arm (fun () -> Config.default) op_name src dst scale in
  Printf.printf "  %-8s %s->%s x%-4.0f broken %2d/%d -> %2d/%d (degraded %d, skips %d)\n%!"
    op_name (Platform.id_to_string src) (Platform.id_to_string dst) scale seed_arm.broken
    n_seeds ladder_arm.broken n_seeds ladder_arm.degraded ladder_arm.skipped_passes;
  { op_name; src; dst; scale; seed_arm; ladder_arm }

let json_arm oc label (a : arm_stats) last =
  Printf.fprintf oc
    "      %S: {\"broken\": %d, \"broken_rate\": %.4f, \"degraded\": %d, \"skipped_passes\": %d, \"llm_attempts\": %d, \"wall_sec\": %.3f}%s\n"
    label a.broken
    (float_of_int a.broken /. float_of_int n_seeds)
    a.degraded a.skipped_passes a.attempts a.wall
    (if last then "" else ",")

let () =
  Printf.printf "resilience benchmark%s\n%!" (if smoke then " (smoke)" else "");
  let rows =
    List.concat_map (fun scale -> List.map (bench_cell scale) cells) fault_scales
  in
  let total f = List.fold_left (fun n r -> n + f r) 0 rows in
  let seed_broken = total (fun r -> r.seed_arm.broken) in
  let ladder_broken = total (fun r -> r.ladder_arm.broken) in
  let gate_pass = ladder_broken < seed_broken in
  let oc = open_out "BENCH_resilience.json" in
  Printf.fprintf oc "{\n  \"schema\": \"xpiler-resilience-bench/v1\",\n  \"smoke\": %b,\n" smoke;
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
      json_arm oc "seed_pipeline" r.seed_arm false;
      json_arm oc "ladder" r.ladder_arm true;
      Printf.fprintf oc "    }%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"total_seed_broken\": %d,\n" seed_broken;
  Printf.fprintf oc "  \"total_ladder_broken\": %d,\n" ladder_broken;
  Printf.fprintf oc "  \"gate_strictly_fewer_broken\": %b\n}\n" gate_pass;
  close_out oc;
  Printf.printf "wrote BENCH_resilience.json\n%!";
  Printf.printf "total broken end states: seed %d, ladder %d\n%!" seed_broken ladder_broken;
  if not gate_pass then begin
    Printf.eprintf
      "GATE FAILED: escalation ladder must yield strictly fewer broken end states than the \
       seed pipeline (seed %d, ladder %d)\n%!"
      seed_broken ladder_broken;
    exit 1
  end
