(* Evaluation-engine benchmark: tree-walking reference interpreter vs the
   closure-compiled engine. Writes BENCH_eval.json (schema
   xpiler-eval-bench/v9) into the current directory.

   Usage:
     dune exec bench/interp_bench.exe            # full measurement
     dune exec bench/interp_bench.exe -- --smoke # seconds-long sanity run

   The smoke run is attached to `dune runtest` via the @bench-smoke alias:
   it cross-checks that both engines produce identical outputs before
   timing them, and fails when a kernel of [alloc_gated] allocates more
   than [words_per_step_limit] words per executed statement on the
   compiled engine, or when the compiled engine is slower than its
   [speedup_gated] limit times the tree-walker. The serial gemm's
   accumulator loop must stay unboxed; the vnni self_attention source must
   reuse its per-[j] scratch tensors and run its intrinsics without
   allocating; the tuned depthwise_conv's barrier-free thread chain must
   run without fibers; the per-element store, a loop that an int [let]
   keeps from lowering, must evaluate its float value without boxing. On
   gemm and self_attention their innermost loops must
   stay lowered, and on conv2d_nchw its 3-level window nest must run as one
   OCaml loop nest. Words are all the words allocated, minor and major, so
   a scratch tensor of 256 words or more (which goes straight to the major
   heap) counts too. The row-reduction row runs the same MACs as 4,096
   rows of 32 and as one row, and fails unless each kernel's loop of rows
   enters lowered code once per run (the receipt's [lowered] count), so
   no row pays an entry check of its own; it reports what a MAC costs in
   the rows against one in the single row (the median over back-to-back
   pairs). *)

open Xpiler_machine
open Xpiler_ops
module Rng = Xpiler_util.Rng

let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv
let now = Unix.gettimeofday

(* ops exercising the scalar loop nest (gemm), index-heavy addressing
   (conv2d), transcendentals (softmax), reductions (layernorm), the fused
   LLM tail (self_attention), a memory-bound elementwise op (relu) and the
   convolution windows that run as loop nests (conv2d_nchw,
   depthwise_conv) *)
let bench_ops =
  [ "gemm"; "conv2d_nhwc"; "softmax"; "layernorm"; "self_attention"; "relu"; "conv2d_nchw";
    "depthwise_conv" ]

(* translated kernels whose body is a store [d[f] = d[f] + e] reduced in a
   float slot: the conv2d_nhwc window and the gemm dot product as the
   translation leaves them, accumulating into the output; and the tuned
   depthwise_conv, whose two-level thread chain (16 x 16 threads per
   block) reaches no barrier *)
let translated =
  [ ("conv2d_nhwc", Platform.Bang, Platform.Cuda, false);
    ("gemm", Platform.Cuda, Platform.Vnni, false);
    ("depthwise_conv", Platform.Bang, Platform.Cuda, true)
  ]

(* [for p < 8192 { let z = 0; out[p] = a[p] * 2.0 }]: the int [let] keeps
   the loop from lowering, so every store runs one statement at a time *)
let per_element_store : Opdef.t =
  let n = 8192 in
  let buffer buf_name is_output =
    { Opdef.buf_name; dtype = Xpiler_ir.Dtype.F32; size = (fun _ -> n); is_output }
  in
  { name = "per_element_store";
    cls = Opdef.Elementwise;
    shapes = [ [ ("n", n) ] ];
    buffers = [ buffer "a" false; buffer "out" true ];
    serial =
      (fun _ ->
        let open Xpiler_ir in
        let open Expr.Infix in
        Kernel.make ~name:"per_element_store"
          ~params:[ Builder.buffer "a"; Builder.buffer "out" ]
          [ Builder.for_ "p" (int n)
              [ Builder.let_ "z" (int 0); Builder.store "out" (v "p") (load "a" (v "p") * flt 2.0) ]
          ]);
    flops = (fun _ -> float_of_int n)
  }

(* golden sources: the vnni self_attention allocates two scratch tensors
   per [j] and runs two intrinsics on them *)
let golden = [ ("self_attention", Platform.Vnni) ]

type row = {
  op_name : string;
  elems_per_run : int;
  tree_eps : float;  (** tree-walker elements/second *)
  compiled_eps : float;
  speedup : float;
  words_per_step : float;  (** compiled-engine words per executed statement *)
}

let words_per_step_limit = 1.0
let alloc_gated =
  [ "gemm"; "self_attention vnni"; "depthwise_conv bang->cuda tuned"; "per-element store" ]
let speedup_gated = [ ("gemm", 20.0); ("self_attention", 20.0); ("conv2d_nchw", 30.0) ]

let elems (s : Interp.stats) = s.stores + s.intrinsic_elems + s.memcpy_elems

(* [run ()] and the words it allocates: its minor words, and its major
   words that were not promoted from the minor heap. [Gc.minor_words] is
   exact (the minor count of [Gc.counters] can miss words), and the
   counters' own result falls outside the minor window. *)
let with_words run =
  let _, p0, j0 = Gc.counters () in
  let m0 = Gc.minor_words () in
  let r = run () in
  let m1 = Gc.minor_words () in
  let _, p1, j1 = Gc.counters () in
  (r, m1 -. m0 +. (j1 -. p1) -. (j0 -. p0))

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

(* the row [name]: [kernel] on the arguments of [op]'s first shape *)
let bench_kernel name op kernel =
  let shape = List.hd op.Opdef.shapes in
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
  (* timed loops reuse one argument set: outputs are recomputed in place.
     The compiled engine is timed on one compile: the rate and the words
     are the engine's, not [Interp.run]'s per-call compile *)
  let tree_eps = rate ~min_time ~elems_per_run (fun () -> Interp.run_tree kernel a_tree) in
  let compiled = Compile.compile kernel in
  let compiled_eps = rate ~min_time ~elems_per_run (fun () -> Compile.run compiled a_comp) in
  (* one run; allocation is deterministic *)
  let s, words = with_words (fun () -> Compile.run compiled a_comp) in
  let words_per_step = words /. float_of_int s.Interp.steps in
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
    "%-32s %10d elems/run | tree %12.3e elems/s | compiled %12.3e elems/s | %5.1fx | \
     %6.2f words/step\n%!"
    r.op_name r.elems_per_run r.tree_eps r.compiled_eps r.speedup r.words_per_step;
  r

let bench_op name =
  let op = Registry.find_exn name in
  bench_kernel name op (op.Opdef.serial (List.hd op.Opdef.shapes))

let bench_golden (name, platform) =
  let op = Registry.find_exn name in
  let label = Printf.sprintf "%s %s" name (Platform.id_to_string platform) in
  bench_kernel label op (Idiom.source platform op (List.hd op.Opdef.shapes))

let bench_translated (name, src, dst, tuned) =
  let op = Registry.find_exn name in
  let shape = List.hd op.Opdef.shapes in
  let label =
    Printf.sprintf "%s %s->%s%s" name (Platform.id_to_string src) (Platform.id_to_string dst)
      (if tuned then " tuned" else "")
  in
  let config = if tuned then Xpiler_core.Config.tuned else Xpiler_core.Config.default in
  match
    (Xpiler_core.Xpiler.transcompile ~config ~src ~dst ~op ~shape ()).Xpiler_core.Xpiler.kernel
  with
  | Some k -> bench_kernel label op k
  | None ->
    Printf.eprintf "%s: the translation produced no kernel\n" label;
    exit 1

(* Row reductions: [row_macs] MACs as [rows] rows of [row_macs / rows],
   each [acc = 0; for p { acc = acc + a[i] * b[i] }; out[j] = acc] *)
let row_macs = 131_072

let row_kernel rows =
  let open Xpiler_ir in
  let len = row_macs / rows in
  let open Expr.Infix in
  let at = (v "j" * int len) + v "p" in
  Kernel.make ~name:"rows"
    ~params:[ Builder.buffer "a"; Builder.buffer "b"; Builder.buffer "out" ]
    [ Builder.for_ "j" (int rows)
        [ Builder.let_ "acc" (flt 0.0);
          Builder.for_ "p" (int len) [ Builder.assign "acc" (v "acc" + (load "a" at * load "b" at)) ];
          Builder.store "out" (v "j") (v "acc")
        ]
    ]

(* a compiled run of [row_kernel rows], after checking that both engines
   agree on it and that the compiled run enters lowered code once: the
   loop of rows, not each row's inner loop *)
let row_run rows =
  let rng = Rng.create 20250706 in
  let args () =
    [ ("a", Interp.Buf (Tensor.random rng row_macs)); ("b", Interp.Buf (Tensor.random rng row_macs));
      ("out", Interp.Buf (Tensor.create rows)) ]
  in
  let k = row_kernel rows in
  let a_tree = args () in
  let a_comp = clone_args a_tree in
  let compiled = Compile.compile k in
  let s_tree = Interp.run_tree k a_tree and r_comp = Compile.run_receipt compiled a_comp in
  let out args = match List.assoc "out" args with Interp.Buf t -> t.Tensor.data | _ -> [||] in
  if s_tree <> r_comp.stats || r_comp.error <> None || out a_tree <> out a_comp then begin
    Printf.eprintf "engine divergence on the row reduction of %d rows\n" rows;
    exit 1
  end;
  if r_comp.lowered <> 1 then begin
    Printf.eprintf
      "row gate: the row reduction of %d rows entered lowered code %d times (want 1); does a \
       loop of rows still run lowered?\n"
      rows r_comp.lowered;
    exit 1
  end;
  fun () -> ignore (Compile.run compiled a_comp)

(* compiled nanoseconds per MAC of 4,096 rows of 32 and of one row, and
   the ratio of the two: the medians over back-to-back pairs of batches,
   so load on the host that slows both sides of a pair cancels in its
   ratio *)
let row_ns_per_mac () =
  let rows = row_run 4096 and one = row_run 1 in
  let ns run = 1e9 /. rate ~min_time:(if smoke then 0.01 else 0.05) ~elems_per_run:row_macs run in
  let pairs = List.init (if smoke then 9 else 21) (fun _ -> let r = ns rows in (r, ns one)) in
  let median xs = List.nth (List.sort compare xs) (List.length xs / 2) in
  ( median (List.map fst pairs),
    median (List.map snd pairs),
    median (List.map (fun (r, o) -> r /. o) pairs) )

let () =
  Printf.printf "evaluation-engine benchmark%s\n%!" (if smoke then " (smoke)" else "");
  let rows = List.map bench_op bench_ops in
  let golden_rows = List.map bench_golden golden in
  let per_element =
    bench_kernel "per-element store" per_element_store
      (per_element_store.serial (List.hd per_element_store.shapes))
  in
  let rows = rows @ golden_rows @ List.map bench_translated translated in
  List.iter
    (fun name ->
      let r = List.find (fun r -> r.op_name = name) (per_element :: rows) in
      if r.words_per_step > words_per_step_limit then begin
        Printf.eprintf "allocation gate: %s allocates %.2f words/step (limit %.1f)\n" name
          r.words_per_step words_per_step_limit;
        exit 1
      end)
    alloc_gated;
  List.iter
    (fun r ->
      match List.assoc_opt r.op_name speedup_gated with
      | Some limit when r.speedup < limit ->
        Printf.eprintf
          "speedup gate: %s runs %.1fx faster compiled than tree-walked (limit %.0fx); are its \
           loop nests still lowered?\n"
          r.op_name r.speedup limit;
        exit 1
      | _ -> ())
    rows;
  let rows_ns, one_ns, row_ratio = row_ns_per_mac () in
  Printf.printf "row reduction: 4096 rows x 32 %.2f ns/MAC | one row %.2f ns/MAC | %.2fx\n%!"
    rows_ns one_ns row_ratio;
  let geomean xs =
    exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))
  in
  (* the synthetic per-element row is gated, not part of the geomean *)
  let g = geomean (List.map (fun r -> r.speedup) rows) in
  Printf.printf "geomean speedup: %.1fx\n%!" g;
  let row_json r =
    Printf.sprintf
      "{\"op\": %S, \"elems_per_run\": %d, \"tree_elems_per_sec\": %.6e, \
       \"compiled_elems_per_sec\": %.6e, \"speedup\": %.3f, \"compiled_words_per_step\": %.3f}"
      r.op_name r.elems_per_run r.tree_eps r.compiled_eps r.speedup r.words_per_step
  in
  let oc = open_out "BENCH_eval.json" in
  Printf.fprintf oc "{\n  \"schema\": \"xpiler-eval-bench/v9\",\n  \"smoke\": %b,\n" smoke;
  Printf.fprintf oc "  \"kernels\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc "    %s%s\n" (row_json r) (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n  \"geomean_speedup\": %.3f,\n" g;
  Printf.fprintf oc "  \"per_element_store\": %s,\n" (row_json per_element);
  Printf.fprintf oc
    "  \"row_reduction\": {\"rows\": 4096, \"row_len\": 32, \"rows_ns_per_mac\": %.3f, \
     \"one_row_ns_per_mac\": %.3f, \"ratio\": %.3f}\n}\n"
    rows_ns one_ns row_ratio;
  close_out oc;
  Printf.printf "wrote BENCH_eval.json\n%!"
