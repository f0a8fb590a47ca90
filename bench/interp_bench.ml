(* Evaluation-engine benchmark: tree-walking reference interpreter vs the
   closure-compiled engine. Writes BENCH_eval.json (schema
   xpiler-eval-bench/v5) into the current directory.

   Usage:
     dune exec bench/interp_bench.exe            # full measurement
     dune exec bench/interp_bench.exe -- --smoke # seconds-long sanity run

   The smoke run is attached to `dune runtest` via the @bench-smoke alias:
   it cross-checks that both engines produce identical outputs before
   timing them, and fails when the serial gemm kernel allocates more than
   [gemm_words_per_step_limit] minor words per executed statement on the
   compiled engine (its accumulator loop must stay unboxed). *)

open Xpiler_machine
open Xpiler_ops
module Rng = Xpiler_util.Rng

let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv
let now = Unix.gettimeofday

(* ops exercising the scalar loop nest (gemm), index-heavy addressing
   (conv2d), transcendentals (softmax), reductions (layernorm), the fused
   LLM tail (self_attention) and a memory-bound elementwise op (relu) *)
let bench_ops = [ "gemm"; "conv2d_nhwc"; "softmax"; "layernorm"; "self_attention"; "relu" ]

type row = {
  op_name : string;
  elems_per_run : int;
  tree_eps : float;  (** tree-walker elements/second *)
  compiled_eps : float;
  speedup : float;
  words_per_step : float;  (** compiled-engine minor words per executed statement *)
}

let gemm_words_per_step_limit = 1.0

let elems (s : Interp.stats) = s.stores + s.intrinsic_elems + s.memcpy_elems

let clone_args args =
  List.map
    (fun (n, a) -> (n, match a with Interp.Buf t -> Interp.Buf (Tensor.copy t) | s -> s))
    args

let out_tensors op args =
  List.filter_map
    (fun (b : Opdef.buffer_spec) ->
      match List.assoc_opt b.buf_name args with
      | Some (Interp.Buf t) -> Some (b.buf_name, t)
      | _ -> None)
    (Opdef.outputs op)

(* time [run] for at least [min_time] seconds (after one untimed warmup that
   also populates the compile cache) and return elements/second *)
let rate ~min_time ~elems_per_run run =
  ignore (run ());
  let t0 = now () in
  let iters = ref 0 in
  while now () -. t0 < min_time do
    ignore (run ());
    incr iters
  done;
  let dt = now () -. t0 in
  float_of_int (elems_per_run * !iters) /. dt

let bench_op name =
  let op = Registry.find_exn name in
  let shape = List.hd op.Opdef.shapes in
  let kernel = op.Opdef.serial shape in
  let args = Unit_test.make_args (Rng.create 20250706) op shape in
  (* correctness gate: both engines must agree bit-for-bit on the outputs *)
  let a_tree = clone_args args in
  let a_comp = clone_args args in
  let s_tree = Interp.run_tree kernel a_tree in
  let s_comp = Interp.run kernel a_comp in
  List.iter
    (fun ((n, t), (n', t')) ->
      assert (n = n');
      if Tensor.max_abs_diff t t' <> 0.0 then begin
        Printf.eprintf "engine divergence on %s output %s\n" name n;
        exit 1
      end)
    (List.combine (out_tensors op a_tree) (out_tensors op a_comp));
  if
    s_tree.Interp.steps <> s_comp.Interp.steps
    || s_tree.Interp.stores <> s_comp.Interp.stores
    || s_tree.Interp.intrinsic_elems <> s_comp.Interp.intrinsic_elems
    || s_tree.Interp.memcpy_elems <> s_comp.Interp.memcpy_elems
    || s_tree.Interp.barriers <> s_comp.Interp.barriers
  then begin
    Printf.eprintf "engine stats divergence on %s\n" name;
    exit 1
  end;
  let elems_per_run = elems s_tree in
  let min_time = if smoke then 0.05 else 0.5 in
  (* timed loops reuse one argument set: outputs are recomputed in place *)
  let tree_eps = rate ~min_time ~elems_per_run (fun () -> Interp.run_tree kernel a_tree) in
  let compiled_eps = rate ~min_time ~elems_per_run (fun () -> Interp.run kernel a_comp) in
  (* one run on the warm compile cache; allocation is deterministic *)
  let w0 = Gc.minor_words () in
  let s = Interp.run kernel a_comp in
  let words_per_step = (Gc.minor_words () -. w0) /. float_of_int s.Interp.steps in
  let r =
    { op_name = name;
      elems_per_run;
      tree_eps;
      compiled_eps;
      speedup = compiled_eps /. tree_eps;
      words_per_step
    }
  in
  Printf.printf
    "%-14s %10d elems/run | tree %12.3e elems/s | compiled %12.3e elems/s | %5.1fx | \
     %6.2f words/step\n%!"
    r.op_name r.elems_per_run r.tree_eps r.compiled_eps r.speedup r.words_per_step;
  r

let () =
  Printf.printf "evaluation-engine benchmark%s\n%!" (if smoke then " (smoke)" else "");
  let rows = List.map bench_op bench_ops in
  let gemm = List.find (fun r -> r.op_name = "gemm") rows in
  if gemm.words_per_step > gemm_words_per_step_limit then begin
    Printf.eprintf "allocation gate: serial gemm allocates %.2f words/step (limit %.1f)\n"
      gemm.words_per_step gemm_words_per_step_limit;
    exit 1
  end;
  let geomean xs =
    exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))
  in
  let g = geomean (List.map (fun r -> r.speedup) rows) in
  Printf.printf "geomean speedup: %.1fx\n%!" g;
  let oc = open_out "BENCH_eval.json" in
  Printf.fprintf oc "{\n  \"schema\": \"xpiler-eval-bench/v5\",\n  \"smoke\": %b,\n" smoke;
  Printf.fprintf oc "  \"kernels\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"op\": %S, \"elems_per_run\": %d, \"tree_elems_per_sec\": %.6e, \
         \"compiled_elems_per_sec\": %.6e, \"speedup\": %.3f, \
         \"compiled_words_per_step\": %.3f}%s\n"
        r.op_name r.elems_per_run r.tree_eps r.compiled_eps r.speedup r.words_per_step
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n  \"geomean_speedup\": %.3f\n}\n" g;
  close_out oc;
  Printf.printf "wrote BENCH_eval.json\n%!";
  History_gate.record_and_gate ~bench:"eval" ~file:"BENCH_eval.json"
