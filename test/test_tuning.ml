open Xpiler_ir
open Xpiler_machine
open Xpiler_ops
open Xpiler_tuning
open Test_support.Tcommon

let gemm = Registry.find_exn "gemm"
let gemm_shape = [ ("m", 32); ("n", 64); ("k", 64) ]
let serial () = gemm.Opdef.serial gemm_shape

let buffer_sizes =
  List.map (fun (b : Opdef.buffer_spec) -> (b.buf_name, b.size gemm_shape)) gemm.Opdef.buffers

(* ---- knobs -------------------------------------------------------------- *)

let test_split_factors () =
  let fs = Knobs.split_factors Platform.cuda ~extent:64 in
  Alcotest.(check (list int)) "divisors" [ 2; 4; 8; 16; 32 ] fs;
  List.iter
    (fun f -> Alcotest.(check bool) "divides" true (512 mod f = 0))
    (Knobs.split_factors Platform.bang ~extent:512)

let test_splittable_loops () =
  let loops = Knobs.splittable_loops (serial ()) in
  Alcotest.(check (list (pair string int))) "loops"
    [ ("i", 32); ("j", 64); ("p", 64) ]
    loops

let test_space_size_ordering () =
  let big = [ ("m", 512); ("n", 512); ("k", 512) ] in
  let k = gemm.Opdef.serial big in
  let gpu = Knobs.space_size Platform.cuda k in
  let mlu = Knobs.space_size Platform.bang k in
  Alcotest.(check bool)
    (Printf.sprintf "gpu space (%d) much larger than mlu (%d)" gpu mlu)
    true
    (gpu > 10 * mlu && mlu >= 1)

let test_bindable_axes () =
  let axes = Knobs.bindable_axes Platform.bang (serial ()) in
  Alcotest.(check bool) "taskId available" true (List.mem Axis.Task_id axes)

(* ---- knob edge cases ---------------------------------------------------- *)

let store v = Stmt.Store { buf = "a"; index = Expr.Var v; value = Expr.Float 1.0 }

let loop ?(kind = Stmt.Serial) var extent body =
  Stmt.For { var; lo = Expr.Int 0; extent = Expr.Int extent; kind; body }

let test_split_factors_edges () =
  Alcotest.(check (list int)) "extent 1" [] (Knobs.split_factors Platform.cuda ~extent:1);
  Alcotest.(check (list int)) "prime extent" [] (Knobs.split_factors Platform.bang ~extent:7);
  List.iter
    (fun p ->
      List.iter
        (fun f ->
          Alcotest.(check bool) "proper divisor" true (f > 1 && f < 48 && 48 mod f = 0))
        (Knobs.split_factors p ~extent:48))
    [ Platform.cuda; Platform.bang; Platform.hip; Platform.vnni ]

let test_splittable_skips_unit_and_parallel () =
  let k =
    Kernel.make ~name:"edge" ~params:[ Builder.buffer "a" ]
      [ loop "one" 1 [ store "one" ];
        loop ~kind:(Stmt.Parallel Axis.Task_id) "t" 4 [ loop "i" 8 [ store "i" ] ]
      ]
  in
  (* the extent-1 loop and the parallel axis are not splittable; the serial
     loop nested under the parallel axis is *)
  Alcotest.(check (list (pair string int))) "loops" [ ("i", 8) ] (Knobs.splittable_loops k)

let test_reorderable_requires_serial_perfect_nest () =
  let perfect =
    Kernel.make ~name:"p" ~params:[ Builder.buffer "a" ]
      [ loop "i" 4 [ loop "j" 8 [ store "j" ] ] ]
  in
  Alcotest.(check (list string)) "perfect 2-nest" [ "i" ] (Knobs.reorderable_loops perfect);
  let parallel_inner =
    Kernel.make ~name:"q" ~params:[ Builder.buffer "a" ]
      [ loop "i" 4 [ loop ~kind:(Stmt.Parallel Axis.Task_id) "j" 8 [ store "j" ] ] ]
  in
  Alcotest.(check (list string)) "parallel inner loop" []
    (Knobs.reorderable_loops parallel_inner)

let test_pipelinable_needs_copy_and_compute () =
  let copy =
    Stmt.Memcpy
      { dst = { Intrin.buf = "a"; offset = Expr.Int 0 };
        src = { Intrin.buf = "a"; offset = Expr.Int 0 };
        len = Expr.Int 8
      }
  in
  let both =
    Kernel.make ~name:"b" ~params:[ Builder.buffer "a" ]
      [ loop "i" 4 [ copy; store "i" ] ]
  in
  Alcotest.(check (list string)) "copy+compute" [ "i" ] (Knobs.pipelinable_loops both);
  let copy_only =
    Kernel.make ~name:"c" ~params:[ Builder.buffer "a" ] [ loop "i" 4 [ copy ] ]
  in
  Alcotest.(check (list string)) "copy only" [] (Knobs.pipelinable_loops copy_only);
  let compute_only =
    Kernel.make ~name:"d" ~params:[ Builder.buffer "a" ] [ loop "i" 4 [ store "i" ] ]
  in
  Alcotest.(check (list string)) "compute only" [] (Knobs.pipelinable_loops compute_only)

(* ---- intra-pass tuning ----------------------------------------------------- *)

let test_intra_never_regresses () =
  let k = serial () in
  let v, _ = Intra.tune ~platform:Platform.cuda k in
  let base = Costmodel.throughput Platform.cuda k ~shapes:[] in
  Alcotest.(check bool) "no regression" true (v.Intra.throughput >= base)

let test_intra_result_correct () =
  let k = serial () in
  let v, _ = Intra.tune ~platform:Platform.cuda k in
  check_equivalent ~buf_size:(fun b -> List.assoc b buffer_sizes) "intra variant" k
    v.Intra.kernel

(* ---- bound-based pruning ------------------------------------------------
   The pruning proof obligation: [Costmodel.throughput_bound] must dominate
   [Costmodel.throughput] on every kernel, or the branch-and-bound scan in
   [Intra.tune] could discard the true optimum. Fuzzed over random kernels
   on every platform, plus every depth-1 tuning action applied to gemm
   (launch configurations and transformed loop structures the generator
   does not produce). *)

let admissible p k =
  Costmodel.throughput_bound p k ~shapes:[] >= Costmodel.throughput p k ~shapes:[]

let prop_bound_admissible =
  QCheck.Test.make ~name:"throughput_bound dominates throughput" ~count:40
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let k = Test_support.Kgen.kernel (Xpiler_util.Rng.create seed) in
      List.for_all (fun p -> admissible p k) Platform.all)

let test_bound_admissible_on_tuning_states () =
  let k = serial () in
  List.iter
    (fun p ->
      Alcotest.(check bool) "root admissible" true (admissible p k);
      List.iter
        (fun spec ->
          match Xpiler_passes.Pass.apply ~platform:p spec k with
          | Ok k' -> Alcotest.(check bool) "admissible after action" true (admissible p k')
          | Error _ -> ())
        (Actions.enumerate ~buffer_sizes p k))
    Platform.all

(* Pruning skips only candidates whose bound cannot beat the incumbent, so
   within a phase it is lossless by admissibility. A skipped candidate is
   never measured and so cannot seed the composed phase: pruning may
   change the composed candidates. Checked on serial roots, and on
   translated gemm and its depth-1 states, where pruning bites. *)
let test_intra_prune_lossless () =
  let root name =
    let op = Registry.find_exn name in
    op.Opdef.serial (List.hd op.Opdef.shapes)
  in
  let translated p =
    let k = Idiom.source p.Platform.id gemm gemm_shape in
    k
    :: List.filter_map
         (fun spec -> Result.to_option (Xpiler_passes.Pass.apply ~platform:p spec k))
         (Actions.enumerate ~buffer_sizes p k)
  in
  let cases =
    List.map (fun k -> (Platform.cuda, k)) (serial () :: translated Platform.cuda)
    @ List.map (fun k -> (Platform.hip, k)) (translated Platform.hip)
    @ List.map (fun k -> (Platform.bang, k)) [ serial (); root "conv2d_nhwc"; root "softmax" ]
  in
  let pruned =
    List.fold_left
      (fun acc (p, k) ->
        let v_off, s_off = Intra.tune ~prune:false ~platform:p k in
        let v_on, s_on = Intra.tune ~prune:true ~platform:p k in
        Alcotest.(check (float 0.0)) "same best throughput" v_off.Intra.throughput
          v_on.Intra.throughput;
        Alcotest.(check bool) "never measures more" true
          (s_on.Intra.evaluated <= s_off.Intra.evaluated);
        acc + s_on.Intra.pruned)
      0 cases
  in
  Alcotest.(check bool) "pruning bites" true (pruned > 0)

(* A composed candidate is built from its seed's kernel, not re-applied from
   the input: replaying the winner's specs from the input must rebuild the
   winner exactly. Checked on every operator's translated kernel and its
   depth-1 action states on every platform; the measured and pruned totals
   are pinned, so building candidates differently cannot change what the
   search measures. *)
let test_intra_specs_replay () =
  let composed = ref 0 and evaluated = ref 0 and pruned = ref 0 in
  let tune_replays p k =
    let v, st = Intra.tune ~platform:p k in
    let replayed =
      List.fold_left
        (fun acc spec -> Result.bind acc (Xpiler_passes.Pass.apply ~platform:p spec))
        (Ok k) v.Intra.specs
    in
    (match replayed with
    | Ok k' -> Alcotest.(check bool) "replays" true (Kernel.equal k' v.Intra.kernel)
    | Error m -> Alcotest.fail m);
    if List.length v.Intra.specs = 2 then incr composed;
    evaluated := !evaluated + st.Intra.evaluated;
    pruned := !pruned + st.Intra.pruned
  in
  List.iter
    (fun (op : Opdef.t) ->
      let shape = List.hd op.Opdef.shapes in
      let buffer_sizes =
        List.map (fun (b : Opdef.buffer_spec) -> (b.buf_name, b.size shape)) op.Opdef.buffers
      in
      List.iter
        (fun (p : Platform.t) ->
          let k = Idiom.source p.Platform.id op shape in
          List.iter (tune_replays p)
            (k
            :: List.filter_map
                 (fun spec -> Result.to_option (Xpiler_passes.Pass.apply ~platform:p spec k))
                 (Actions.enumerate ~buffer_sizes p k)))
        Platform.all)
    Registry.all;
  Alcotest.(check int) "composed winners" 3 !composed;
  Alcotest.(check int) "evaluated" 5241 !evaluated;
  Alcotest.(check int) "pruned" 48 !pruned

(* ---- rejected input ------------------------------------------------------- *)

(* the tensorized MLU gemm fails the CUDA checker: it has no valid variant,
   so it tunes to 0 without measuring or pruning anything — the same empty
   receipt MCTS records for a rejected state *)
let test_intra_rejected_input () =
  let k = Idiom.source Platform.Bang gemm gemm_shape in
  Alcotest.(check bool) "checker rejects" true
    (Result.is_error (Checker.compile Platform.cuda k));
  let v, st = Intra.tune ~platform:Platform.cuda k in
  Alcotest.(check (float 0.0)) "throughput" 0.0 v.Intra.throughput;
  Alcotest.(check int) "evaluated" 0 st.Intra.evaluated;
  Alcotest.(check int) "pruned" 0 st.Intra.pruned

(* ---- actions ------------------------------------------------------------------ *)

let test_actions_exclude_reduction_bind () =
  let acts = Actions.enumerate ~buffer_sizes Platform.bang (serial ()) in
  List.iter
    (fun spec ->
      match spec with
      | Xpiler_passes.Pass.Loop_bind { var = "p"; _ } ->
        Alcotest.fail "reduction loop must not be bindable"
      | _ -> ())
    acts;
  Alcotest.(check bool) "has actions" true (acts <> [])

let test_actions_cache_targets_wram_for_weights () =
  (* after tensorization, the second matmul operand prefers WRAM *)
  let k = Idiom.source Platform.Bang gemm gemm_shape in
  let acts = Actions.enumerate ~buffer_sizes Platform.bang k in
  ignore acts (* staged already: no duplicate cache actions *);
  let has_dup_cache =
    List.exists
      (function Xpiler_passes.Pass.Cache { buf = "A"; _ } -> true | _ -> false)
      acts
  in
  Alcotest.(check bool) "no duplicate staging" false has_dup_cache

(* ---- MCTS ----------------------------------------------------------------------- *)

let test_mcts_improves_gemm () =
  let config = { Mcts.default_config with simulations = 64; max_depth = 8 } in
  let r = Mcts.search ~config ~buffer_sizes ~platform:Platform.bang (serial ()) in
  Alcotest.(check bool)
    (Printf.sprintf "reward improved (%.3g -> %.3g)" r.Mcts.root_reward r.Mcts.best_reward)
    true
    (r.Mcts.best_reward > (2.0 *. r.Mcts.root_reward));
  (* the best kernel compiles and is semantically equivalent *)
  (match Checker.compile Platform.bang r.Mcts.best_kernel with
  | Ok () -> ()
  | Error es -> Alcotest.fail (Checker.errors_to_string es));
  Alcotest.(check bool) "still correct" true
    (Unit_test.check gemm gemm_shape r.Mcts.best_kernel = Unit_test.Pass)

let test_mcts_deterministic () =
  let config = { Mcts.default_config with simulations = 24; max_depth = 6 } in
  let r1 = Mcts.search ~config ~buffer_sizes ~platform:Platform.bang (serial ()) in
  let r2 = Mcts.search ~config ~buffer_sizes ~platform:Platform.bang (serial ()) in
  Alcotest.(check bool) "same reward" true (r1.Mcts.best_reward = r2.Mcts.best_reward);
  Alcotest.(check bool) "same specs" true (r1.Mcts.best_specs = r2.Mcts.best_specs)

let test_mcts_budget_monotone_ish () =
  (* more simulations never lose reward (same seed, supersets of the search) *)
  let run sims =
    let config = { Mcts.default_config with simulations = sims; max_depth = 8 } in
    (Mcts.search ~config ~buffer_sizes ~platform:Platform.bang (serial ())).Mcts.best_reward
  in
  let r8 = run 8 and r64 = run 64 in
  Alcotest.(check bool) (Printf.sprintf "8 sims %.3g <= 64 sims %.3g" r8 r64) true (r8 <= r64)

(* ---- transposition meters ----------------------------------------------- *)

(* The lookup meter counts every reuse: a search hits its own table
   whenever it revisits a state, and each miss is one fresh evaluation. *)
let test_lookup_meter_counts_reuse () =
  let module Metrics = Xpiler_obs.Metrics in
  let misses () =
    List.fold_left
      (fun acc (s : Metrics.sample) ->
        match s.Metrics.value with
        | Metrics.Vcounter n
          when s.Metrics.name = "xpiler_transposition_lookups_total"
               && s.Metrics.labels = [ ("result", "miss") ] -> acc + n
        | _ -> acc)
      0 (Metrics.snapshot ())
  in
  (* the tuned pipeline's search size *)
  let config = { Mcts.default_config with simulations = 48; max_depth = 6 } in
  let hits0 = Transposition.hits () and misses0 = misses () and evals0 = Transposition.evals () in
  ignore (Mcts.search ~config ~buffer_sizes ~platform:Platform.bang (serial ()));
  let evals = Transposition.evals () - evals0 in
  Alcotest.(check bool) "search evaluates" true (evals > 0);
  Alcotest.(check bool) "revisits count as hits" true (Transposition.hits () - hits0 > 0);
  Alcotest.(check int) "misses = fresh evaluations" evals (misses () - misses0)

(* ---- journal counts ------------------------------------------------------- *)

module Vclock = Xpiler_util.Vclock
module Trace = Xpiler_obs.Trace
module Tracer = Xpiler_obs.Tracer

(* The journal describes the tuner: every measured intra variant is one
   [intra.variants] count and one 10 s auto-tuning charge, and the
   [mcts.*] totals are the result's. *)
let test_mcts_journal_counts () =
  let config = { Mcts.default_config with simulations = 24; max_depth = 6 } in
  let clock = Vclock.create () in
  let tens = ref 0 in
  Vclock.set_observer clock (fun st s ->
      if Vclock.stage_name st = "auto-tuning" && s = 10.0 then incr tens);
  let tracer = Tracer.create () in
  let r =
    Trace.with_tracer tracer (fun () ->
        Mcts.search ~config ~clock ~buffer_sizes ~platform:Platform.bang (serial ()))
  in
  let total = Tracer.counter_total tracer in
  Alcotest.(check bool) "variants measured" true (!tens > 0);
  Alcotest.(check int) "intra.variants = 10 s charges" !tens (total "intra.variants");
  Alcotest.(check int) "mcts.expansions" r.Mcts.nodes_expanded (total "mcts.expansions");
  Alcotest.(check int) "mcts.simulations" r.Mcts.simulations_run (total "mcts.simulations")

let prop_mcts_best_is_valid =
  QCheck.Test.make ~name:"MCTS best kernel always compiles" ~count:6
    QCheck.(int_range 1 1000)
    (fun seed ->
      let config =
        { Mcts.default_config with simulations = 16; max_depth = 5; seed }
      in
      let r = Mcts.search ~config ~buffer_sizes ~platform:Platform.bang (serial ()) in
      Checker.compile Platform.bang r.Mcts.best_kernel = Ok ())

let () =
  Alcotest.run "tuning"
    [ ( "knobs",
        [ Alcotest.test_case "split factors" `Quick test_split_factors;
          Alcotest.test_case "splittable loops" `Quick test_splittable_loops;
          Alcotest.test_case "space-size ordering" `Quick test_space_size_ordering;
          Alcotest.test_case "bindable axes" `Quick test_bindable_axes;
          Alcotest.test_case "split-factor edges" `Quick test_split_factors_edges;
          Alcotest.test_case "splittable skips unit/parallel" `Quick
            test_splittable_skips_unit_and_parallel;
          Alcotest.test_case "reorderable needs serial nest" `Quick
            test_reorderable_requires_serial_perfect_nest;
          Alcotest.test_case "pipelinable needs copy+compute" `Quick
            test_pipelinable_needs_copy_and_compute
        ] );
      ( "intra",
        [ Alcotest.test_case "never regresses" `Quick test_intra_never_regresses;
          Alcotest.test_case "result correct" `Quick test_intra_result_correct;
          Alcotest.test_case "pruning lossless" `Quick test_intra_prune_lossless;
          Alcotest.test_case "bound admissible on tuning states" `Quick
            test_bound_admissible_on_tuning_states;
          Alcotest.test_case "rejected input tunes to 0" `Quick test_intra_rejected_input;
          Alcotest.test_case "winner replays from its specs" `Quick test_intra_specs_replay
        ] );
      ( "sharing",
        [ Alcotest.test_case "lookup meter counts every reuse" `Quick
            test_lookup_meter_counts_reuse
        ] );
      ( "actions",
        [ Alcotest.test_case "no reduction bind" `Quick test_actions_exclude_reduction_bind;
          Alcotest.test_case "no duplicate staging" `Quick
            test_actions_cache_targets_wram_for_weights
        ] );
      ( "mcts",
        [ Alcotest.test_case "improves gemm" `Quick test_mcts_improves_gemm;
          Alcotest.test_case "deterministic" `Quick test_mcts_deterministic;
          Alcotest.test_case "budget monotone" `Quick test_mcts_budget_monotone_ish;
          Alcotest.test_case "journal counts" `Quick test_mcts_journal_counts
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_mcts_best_is_valid;
          QCheck_alcotest.to_alcotest prop_bound_admissible
        ] )
    ]
