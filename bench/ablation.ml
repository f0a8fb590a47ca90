(* Ablations of this reproduction's own design choices (DESIGN.md):
   - program annotation on/off inside the full pipeline,
   - repair rounds (single- vs multi-fault hill climbing),
   - MCTS vs pure random search at equal budget,
   - the fiber schedule (does the interpreter actually expose
     missing-barrier races?). *)

open Xpiler_ir
open Xpiler_machine
open Xpiler_ops
open Xpiler_core
module Mcts = Xpiler_tuning.Mcts
module Pass = Xpiler_passes.Pass
module Rng = Xpiler_util.Rng

let header title = Printf.printf "\n=== Ablation: %s ===\n%!" title

let sample_cases () =
  List.filter
    (fun (c : Registry.case) -> List.hd c.op.Opdef.shapes == c.shape)
    (Registry.cases ())

(* ---- annotation ------------------------------------------------------------ *)

let annotation () =
  header "program annotation (Algorithm 1) inside the full pipeline";
  let run annotate =
    let config = { Config.default with Config.annotate } in
    List.fold_left
      (fun acc (c : Registry.case) ->
        let o =
          Xpiler.transcompile ~config ~src:Platform.Cuda ~dst:Platform.Bang ~op:c.op
            ~shape:c.shape ()
        in
        if Xpiler.accepted o.Xpiler.status then acc + 1 else acc)
      0 (sample_cases ())
  in
  let total = List.length (sample_cases ()) in
  Printf.printf "  with annotation   : %d/%d correct\n%!" (run true) total;
  Printf.printf "  without annotation: %d/%d correct\n%!" (run false) total

(* ---- repair rounds ------------------------------------------------------------ *)

let repair_rounds () =
  header "repair rounds (multi-fault hill climbing)";
  let gemm = Registry.find_exn "gemm" in
  let shape = List.hd gemm.Opdef.shapes in
  let base = Idiom.source Platform.Cuda gemm shape in
  (* inject two simultaneous detail faults and try to repair with 1 vs 3 rounds *)
  let count rounds =
    let fixed = ref 0 and total = ref 0 in
    for seed = 0 to 19 do
      let rng = Rng.create (1000 + seed) in
      let broken =
        match Xpiler_neural.Fault.inject_param rng base with
        | None -> None
        | Some (k, _) -> (
          match Xpiler_neural.Fault.inject_index rng k with
          | None -> Some k
          | Some (k', _) -> Some k')
      in
      match broken with
      | Some broken when Unit_test.check ~trials:1 gemm shape broken <> Unit_test.Pass ->
        incr total;
        (match
           Xpiler_repair.Repairer.repair ~rounds ~platform:Platform.cuda ~op:gemm ~shape broken
         with
        | Xpiler_repair.Repairer.Repaired _ -> incr fixed
        | Xpiler_repair.Repairer.Gave_up _ -> ())
      | _ -> ()
    done;
    (!fixed, !total)
  in
  List.iter
    (fun rounds ->
      let fixed, total = count rounds in
      Printf.printf "  rounds=%d: repaired %d/%d double-fault kernels\n%!" rounds fixed total)
    [ 1; 2; 3 ]

(* ---- MCTS vs random search ------------------------------------------------------ *)

let mcts_vs_random () =
  header "inter-pass MCTS vs uniform random search (equal pass-application budget)";
  let conv = Registry.find_exn "conv2d_nhwc" in
  let shape = List.nth conv.Opdef.shapes 2 in
  let serial = conv.Opdef.serial shape in
  let buffer_sizes =
    List.map (fun (b : Opdef.buffer_spec) -> (b.buf_name, b.size shape)) conv.Opdef.buffers
  in
  let platform = Platform.bang in
  let random_search budget seed =
    (* repeated random pass chains of depth <= 8 *)
    let rng = Rng.create seed in
    let best = ref (Costmodel.throughput platform serial ~shapes:[]) in
    let applications = ref 0 in
    while !applications < budget do
      let rec chain k depth =
        if depth = 0 || !applications >= budget then ()
        else begin
          match Xpiler_tuning.Actions.enumerate ~buffer_sizes platform k with
          | [] -> ()
          | acts -> (
            incr applications;
            match Pass.apply ~platform (Rng.choose rng acts) k with
            | Error _ -> ()
            | Ok k' ->
              if Checker.compile platform k' = Ok () then
                best := Float.max !best (Costmodel.throughput platform k' ~shapes:[]);
              chain k' (depth - 1))
        end
      in
      chain serial 8
    done;
    !best
  in
  List.iter
    (fun sims ->
      let config = { Mcts.default_config with simulations = sims; max_depth = 8 } in
      let m = Mcts.search ~config ~buffer_sizes ~platform serial in
      (* MCTS applies roughly max_depth passes per simulation *)
      let rnd = random_search (sims * 8) 424 in
      Printf.printf "  budget %4d sims: MCTS %.3g  vs  random %.3g  (MCTS/random %.2fx)\n%!"
        sims m.Mcts.best_reward rnd (m.Mcts.best_reward /. rnd))
    [ 8; 32 ];
  Printf.printf
    "  (on these small kernels both searches saturate the space; the paper's\n\
    \   512-simulation budget targets much larger real-device spaces)\n%!"

(* ---- fiber scheduling ------------------------------------------------------------ *)

let race_exposure () =
  header "the fiber schedule exposes missing barriers";
  (* the barrier kernel from the paper's parallelism error class, with the
     __syncthreads removed: the interpreter must detect the race *)
  let racy =
    let open Expr.Infix in
    Kernel.make ~name:"rev"
      ~params:[ Builder.buffer "inp"; Builder.buffer "out" ]
      ~launch:[ (Axis.Thread_x, 64) ]
      [ Builder.alloc "tile" Scope.Shared 64;
        Builder.par_for Axis.Thread_x "threadIdx.x" (int 64)
          [ Builder.store "tile" (v "threadIdx.x") (load "inp" (v "threadIdx.x"));
            (* missing __syncthreads() here *)
            Builder.store "out" (v "threadIdx.x") (load "tile" (int 63 - v "threadIdx.x"))
          ]
      ]
  in
  let check () =
    let rng = Rng.create 5 in
    let inp = Tensor.random rng 64 in
    let out = Tensor.create 64 in
    let _ = Interp.run racy [ ("inp", Interp.Buf inp); ("out", Interp.Buf out) ] in
    let wrong = ref 0 in
    for t = 0 to 63 do
      if Float.abs (Tensor.get out t -. Tensor.get inp (63 - t)) > 1e-9 then incr wrong
    done;
    !wrong
  in
  Printf.printf "  missing-barrier kernel: %d/64 outputs wrong\n" (check ());
  Printf.printf
    "  (each thread runs to completion in thread order, so thread t < 32 reads tile[63 - t] \
     before its thread has stored it)\n%!"

let run () =
  annotation ();
  repair_rounds ();
  mcts_vs_random ();
  race_exposure ()
