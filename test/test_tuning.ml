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
  let v = Intra.tune ~platform:Platform.cuda k in
  let base = Costmodel.throughput Platform.cuda k ~shapes:[] in
  Alcotest.(check bool) "no regression" true (v.Intra.throughput >= base)

let test_intra_result_correct () =
  let k = serial () in
  let v = Intra.tune ~platform:Platform.cuda k in
  check_equivalent ~buf_size:(fun b -> List.assoc b buffer_sizes) "intra variant" k
    v.Intra.kernel

let test_intra_clock_charged () =
  let clock = Xpiler_util.Vclock.create () in
  let _ = Intra.tune ~clock ~platform:Platform.cuda (serial ()) in
  Alcotest.(check bool) "tuning time recorded" true
    (Xpiler_util.Vclock.stage_total clock Xpiler_util.Vclock.Auto_tuning > 0.0)

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

let test_intra_prune_lossless () =
  List.iter
    (fun p ->
      let v_off, s_off =
        Intra.tune_with_stats ~prune:false ~compose:false ~memo:(Intra.create_memo ())
          ~platform:p (serial ())
      in
      let v_on, s_on =
        Intra.tune_with_stats ~prune:true ~compose:false ~memo:(Intra.create_memo ())
          ~platform:p (serial ())
      in
      Alcotest.(check (float 0.0)) "same best throughput" v_off.Intra.throughput
        v_on.Intra.throughput;
      Alcotest.(check int) "every candidate accounted for" s_off.Intra.evaluated
        (s_on.Intra.evaluated + s_on.Intra.pruned);
      (* composition only ever adds candidates *)
      let v_comp, _ =
        Intra.tune_with_stats ~prune:true ~compose:true ~memo:(Intra.create_memo ())
          ~platform:p (serial ())
      in
      Alcotest.(check bool) "composition never loses" true
        (v_comp.Intra.throughput >= v_on.Intra.throughput))
    [ Platform.cuda; Platform.bang ]

(* ---- intra memo scope ------------------------------------------------------ *)

(* the checker/cost-model memo belongs to one search: repeating the same
   search starts cold again and sees exactly the first run's hits and misses *)
let test_intra_memo_per_search () =
  let module Metrics = Xpiler_obs.Metrics in
  let lookups () =
    List.filter_map
      (fun (s : Metrics.sample) ->
        match s.value with
        | Metrics.Vcounter n when s.name = "xpiler_intra_memo_lookups_total" -> Some (s.labels, n)
        | _ -> None)
      (Metrics.snapshot ())
  in
  let config = { Mcts.default_config with simulations = 32; max_depth = 6 } in
  let search_deltas () =
    let before = lookups () in
    ignore
      (Mcts.search ~config ~buffer_sizes ~share:false ~jobs:1 ~platform:Platform.bang
         (serial ()));
    List.map
      (fun (l, n) -> (l, n - Option.value ~default:0 (List.assoc_opt l before)))
      (lookups ())
  in
  let first = search_deltas () in
  let second = search_deltas () in
  let total result =
    List.fold_left
      (fun acc (l, n) -> if List.assoc_opt "result" l = Some result then acc + n else acc)
      0 first
  in
  Alcotest.(check bool) "the search misses" true (total "miss" > 0);
  Alcotest.(check bool) "the search hits" true (total "hit" > 0);
  Alcotest.(check (list (pair (list (pair string string)) int)))
    "same hits and misses" first second

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

(* ---- transposition sharing ---------------------------------------------- *)

let small_config = { Mcts.default_config with simulations = 16; max_depth = 6 }

let test_transposition_values_pure () =
  (* sharing changes time, never values: same result with the table off,
     cold, and fully warm *)
  Transposition.clear ();
  let r_off = Mcts.search ~config:small_config ~buffer_sizes ~share:false ~platform:Platform.bang (serial ()) in
  Transposition.clear ();
  let evals0 = Transposition.evals () and hits0 = Transposition.hits () in
  let r_cold = Mcts.search ~config:small_config ~buffer_sizes ~share:true ~platform:Platform.bang (serial ()) in
  let cold_evals = Transposition.evals () - evals0 in
  let r_warm = Mcts.search ~config:small_config ~buffer_sizes ~share:true ~platform:Platform.bang (serial ()) in
  let warm_evals = Transposition.evals () - evals0 - cold_evals in
  Alcotest.(check bool) "share off = share on" true
    (r_off.Mcts.best_reward = r_cold.Mcts.best_reward
    && r_off.Mcts.best_specs = r_cold.Mcts.best_specs);
  Alcotest.(check bool) "cold = warm" true
    (r_cold.Mcts.best_reward = r_warm.Mcts.best_reward
    && r_cold.Mcts.best_specs = r_warm.Mcts.best_specs);
  Alcotest.(check bool) "cold search evaluates" true (cold_evals > 0);
  Alcotest.(check int) "warm repeat is free" 0 warm_evals;
  Alcotest.(check bool) "hits recorded" true (Transposition.hits () > hits0)

(* ---- schedule database --------------------------------------------------- *)

let gemm_shape_b = List.nth gemm.Opdef.shapes 1

let test_signature_shape_invariant () =
  let pid = Platform.bang.Platform.id in
  let sig_a = Schedule_db.signature pid (serial ()) in
  let sig_b = Schedule_db.signature pid (gemm.Opdef.serial gemm_shape_b) in
  Alcotest.(check int) "same op, different shape" sig_a sig_b;
  let softmax = Registry.find_exn "softmax" in
  let sig_soft = Schedule_db.signature pid (softmax.Opdef.serial (List.hd softmax.Opdef.shapes)) in
  Alcotest.(check bool) "different op" true (sig_a <> sig_soft);
  Alcotest.(check bool) "different platform" true
    (sig_a <> Schedule_db.signature Platform.cuda.Platform.id (serial ()))

let test_warm_start_never_worse () =
  let pid = Platform.bang.Platform.id in
  let db = Schedule_db.create () in
  ignore
    (Mcts.search ~config:small_config ~buffer_sizes ~share:true ~db ~platform:Platform.bang
       (gemm.Opdef.serial gemm_shape_b));
  Alcotest.(check bool) "prime recorded" true (Schedule_db.lookup db pid (serial ()) <> None);
  Transposition.clear ();
  let cold = Mcts.search ~config:small_config ~buffer_sizes ~share:true ~platform:Platform.bang (serial ()) in
  Transposition.clear ();
  let warm = Mcts.search ~config:small_config ~buffer_sizes ~share:true ~db ~platform:Platform.bang (serial ()) in
  (* the warm trajectory runs as an extra batch, so the merge can only gain *)
  Alcotest.(check bool)
    (Printf.sprintf "warm %.4g >= cold %.4g" warm.Mcts.best_reward cold.Mcts.best_reward)
    true
    (warm.Mcts.best_reward >= cold.Mcts.best_reward);
  (* the winner was recorded back for the next similar translation *)
  Alcotest.(check bool) "result recorded" true
    (Schedule_db.lookup db pid (serial ()) = Some warm.Mcts.best_specs)

(* ---- jobs determinism ---------------------------------------------------
   The pool contract promises byte-identical observable behaviour for any
   job count. Assert it end-to-end on both pool call sites: intra-pass
   candidate evaluation and MCTS root-parallel batches — results, clock
   charge streams and trace counters all equal between jobs=1 and jobs=4,
   with the domain clamp lifted so jobs=4 really crosses domains. *)

module Vclock = Xpiler_util.Vclock
module Pool = Xpiler_util.Pool
module Trace = Xpiler_obs.Trace
module Tracer = Xpiler_obs.Tracer

let forcing_domains f =
  let saved = Pool.get_max_domains () in
  Pool.set_max_domains 4;
  Fun.protect ~finally:(fun () -> Pool.set_max_domains saved) f

let observed_run work =
  let clock = Vclock.create () in
  let charges = ref [] in
  Vclock.set_observer clock (fun st s -> charges := (Vclock.stage_name st, s) :: !charges);
  let tracer = Tracer.create ~level:Tracer.Detail () in
  Trace.install tracer;
  let v = Fun.protect ~finally:Trace.uninstall (fun () -> work clock) in
  let counters =
    List.map
      (fun c -> (c, Tracer.counter_total tracer c))
      [ "intra.variants"; "intra.pruned"; "mcts.simulations"; "mcts.expansions";
        "mcts.rollout_steps"; "mcts.warm_steps"
      ]
  in
  (v, List.rev !charges, counters, Vclock.elapsed clock, Tracer.events tracer)

let test_intra_jobs_deterministic () =
  forcing_domains @@ fun () ->
  let run jobs =
    observed_run (fun clock ->
        Intra.tune ~clock ~jobs ~prune:false ~platform:Platform.bang (serial ()))
  in
  let v1, c1, n1, e1, _ = run 1 in
  let v4, c4, n4, e4, _ = run 4 in
  Alcotest.(check bool) "same variant" true
    (v1.Intra.specs = v4.Intra.specs
    && Kernel.equal v1.Intra.kernel v4.Intra.kernel
    && v1.Intra.throughput = v4.Intra.throughput);
  Alcotest.(check (list (pair string (float 1e-9)))) "same charge stream" c1 c4;
  Alcotest.(check (list (pair string int))) "same trace counters" n1 n4;
  Alcotest.(check (float 1e-9)) "same clock" e1 e4

let test_mcts_jobs_deterministic () =
  forcing_domains @@ fun () ->
  let config =
    { Mcts.default_config with simulations = 24; max_depth = 6; root_parallel = 3 }
  in
  let run jobs =
    observed_run (fun clock ->
        Mcts.search ~config ~clock ~buffer_sizes ~jobs ~platform:Platform.bang (serial ()))
  in
  let r1, c1, n1, e1, _ = run 1 in
  let r4, c4, n4, e4, _ = run 4 in
  Alcotest.(check bool) "same result" true
    (r1.Mcts.best_reward = r4.Mcts.best_reward
    && r1.Mcts.best_specs = r4.Mcts.best_specs
    && Kernel.equal r1.Mcts.best_kernel r4.Mcts.best_kernel
    && r1.Mcts.simulations_run = r4.Mcts.simulations_run
    && r1.Mcts.nodes_expanded = r4.Mcts.nodes_expanded);
  Alcotest.(check (list (pair string (float 1e-9)))) "same charge stream" c1 c4;
  Alcotest.(check (list (pair string int))) "same trace counters" n1 n4;
  Alcotest.(check (float 1e-9)) "same clock" e1 e4

let test_mcts_jobs_deterministic_full_stack () =
  (* the PR's regression gate: pruning + composition + shared transposition
     table + warm-started search, jobs=1 vs jobs=4 — byte-identical result,
     charge stream, counters and full trace journal. The table is cleared
     before the jobs=1 run only, so the comparison also proves a cold and a
     pre-populated table are observably identical (the receipt discipline). *)
  forcing_domains @@ fun () ->
  let config =
    { Mcts.default_config with simulations = 24; max_depth = 6; root_parallel = 3 }
  in
  let prime =
    (Mcts.search ~config ~buffer_sizes ~share:false ~platform:Platform.bang
       (gemm.Opdef.serial gemm_shape_b))
      .Mcts.best_specs
  in
  Alcotest.(check bool) "prime non-trivial" true (prime <> []);
  let run ~clear jobs =
    let db = Schedule_db.create () in
    Schedule_db.record db Platform.bang.Platform.id (serial ()) ~specs:prime ~reward:1.0;
    if clear then Transposition.clear ();
    observed_run (fun clock ->
        Mcts.search ~config ~clock ~buffer_sizes ~jobs ~share:true ~db
          ~platform:Platform.bang (serial ()))
  in
  let r1, c1, n1, e1, j1 = run ~clear:true 1 in
  let r4, c4, n4, e4, j4 = run ~clear:false 4 in
  Alcotest.(check bool) "same result" true
    (r1.Mcts.best_reward = r4.Mcts.best_reward
    && r1.Mcts.best_specs = r4.Mcts.best_specs
    && Kernel.equal r1.Mcts.best_kernel r4.Mcts.best_kernel
    && r1.Mcts.simulations_run = r4.Mcts.simulations_run
    && r1.Mcts.nodes_expanded = r4.Mcts.nodes_expanded);
  Alcotest.(check (list (pair string (float 1e-9)))) "same charge stream" c1 c4;
  Alcotest.(check (list (pair string int))) "same trace counters" n1 n4;
  Alcotest.(check bool) "warm steps replayed" true (List.assoc "mcts.warm_steps" n1 > 0);
  Alcotest.(check (float 1e-9)) "same clock" e1 e4;
  Alcotest.(check bool) "same trace journal" true (j1 = j4)

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
          Alcotest.test_case "clock charged" `Quick test_intra_clock_charged;
          Alcotest.test_case "pruning lossless" `Quick test_intra_prune_lossless;
          Alcotest.test_case "bound admissible on tuning states" `Quick
            test_bound_admissible_on_tuning_states;
          Alcotest.test_case "memo scoped to one search" `Quick test_intra_memo_per_search
        ] );
      ( "sharing",
        [ Alcotest.test_case "transposition values pure" `Quick test_transposition_values_pure;
          Alcotest.test_case "signature shape-invariant" `Quick test_signature_shape_invariant;
          Alcotest.test_case "warm start never worse" `Quick test_warm_start_never_worse
        ] );
      ( "actions",
        [ Alcotest.test_case "no reduction bind" `Quick test_actions_exclude_reduction_bind;
          Alcotest.test_case "no duplicate staging" `Quick
            test_actions_cache_targets_wram_for_weights
        ] );
      ( "mcts",
        [ Alcotest.test_case "improves gemm" `Quick test_mcts_improves_gemm;
          Alcotest.test_case "deterministic" `Quick test_mcts_deterministic;
          Alcotest.test_case "budget monotone" `Quick test_mcts_budget_monotone_ish
        ] );
      ( "jobs",
        [ Alcotest.test_case "intra jobs=1 = jobs=4" `Quick test_intra_jobs_deterministic;
          Alcotest.test_case "mcts jobs=1 = jobs=4" `Quick test_mcts_jobs_deterministic;
          Alcotest.test_case "full stack jobs=1 = jobs=4" `Quick
            test_mcts_jobs_deterministic_full_stack
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_mcts_best_is_valid;
          QCheck_alcotest.to_alcotest prop_bound_admissible
        ] )
    ]
