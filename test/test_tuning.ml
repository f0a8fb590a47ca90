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

(* ---- the cost model against its naive walk --------------------------------
   [Test_support.Naive.estimate] is the cost model's walk as it was before
   it stopped allocating. The two agree bit for bit on every field of the
   estimate: on generated kernels, on every golden source and its depth-1
   tuning states, and on a hand-built kernel that reads, writes and copies
   an undeclared buffer, redeclares a buffer in another scope and dtype,
   takes an [else] branch, and sizes its loop and copy from scalar
   parameters (bound by [shapes], or left unbound, which the model reads
   as 8). *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let estimate_matches_naive p k ~shapes =
  let e = Costmodel.estimate p k ~shapes and n = Test_support.Naive.estimate p k ~shapes in
  let f = e.Costmodel.features and g = n.Costmodel.features in
  same_bits e.Costmodel.seconds n.Costmodel.seconds
  && same_bits e.Costmodel.compute_seconds n.Costmodel.compute_seconds
  && same_bits e.Costmodel.memory_seconds n.Costmodel.memory_seconds
  && same_bits f.Costmodel.scalar_flops g.Costmodel.scalar_flops
  && same_bits f.Costmodel.vector_elems g.Costmodel.vector_elems
  && same_bits f.Costmodel.tensor_macs g.Costmodel.tensor_macs
  && same_bits f.Costmodel.offchip_bytes g.Costmodel.offchip_bytes
  && same_bits f.Costmodel.onchip_bytes g.Costmodel.onchip_bytes
  && f.Costmodel.blocks = g.Costmodel.blocks
  && f.Costmodel.threads = g.Costmodel.threads
  && f.Costmodel.pipelined = g.Costmodel.pipelined
  && f.Costmodel.launches = g.Costmodel.launches

let prop_estimate_matches_naive =
  QCheck.Test.make ~name:"cost model = naive walk, bit for bit" ~count:100
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let k = Test_support.Kgen.kernel (Xpiler_util.Rng.create seed) in
      List.for_all (fun p -> estimate_matches_naive p k ~shapes:[]) Platform.all)

let test_estimate_matches_naive_on_tuning_states () =
  let hand_built =
    let open Expr.Infix in
    Kernel.make ~name:"hand-built"
      ~params:[ Builder.buffer "a"; Builder.scalar "n" ]
      [ Builder.alloc "s" Scope.Nram 64;
        Builder.for_ "i" (v "n")
          [ Builder.if_
              (v "i" < int 4)
              [ Builder.store "ghost" (v "i") (load "a" (v "i") + load "ghost" (v "i")) ]
              ~else_:[ Builder.store "s" (v "i") (load "s" (v "i") * load "a" (v "i")) ];
            Builder.memcpy ~dst:"ghost" ~dst_off:(int 0) ~src:"s" ~src_off:(int 0)
              (v "n" * v "m")
          ];
        Builder.alloc ~dtype:Dtype.I8 "s" Scope.Global 64
      ]
  in
  let check p k ~shapes =
    Alcotest.(check bool) (k.Kernel.name ^ " estimate bits") true
      (estimate_matches_naive p k ~shapes)
  in
  List.iter
    (fun p ->
      check p hand_built ~shapes:[];
      check p hand_built ~shapes:[ ("n", 16) ];
      check p hand_built ~shapes:[ ("n", 16); ("m", 4) ])
    Platform.all;
  List.iter
    (fun (op : Opdef.t) ->
      let shape = List.hd op.Opdef.shapes in
      let buffer_sizes =
        List.map (fun (b : Opdef.buffer_spec) -> (b.buf_name, b.size shape)) op.Opdef.buffers
      in
      List.iter
        (fun (p : Platform.t) ->
          let k = Idiom.source p.Platform.id op shape in
          List.iter
            (fun k ->
              check p k ~shapes:[];
              check p k ~shapes:shape)
            (k
            :: List.filter_map
                 (fun spec -> Result.to_option (Xpiler_passes.Pass.apply ~platform:p spec k))
                 (Actions.enumerate ~buffer_sizes p k)))
        Platform.all)
    Registry.all

(* ---- the tuner's candidates pass the checker ---------------------------------
   [Intra.tune] checks only its input and its winner. That is sound because
   split, reorder and pipeline rebuild serial loops or change a loop's kind,
   which none of the checker's rules read: every such candidate of a
   checker-accepted state passes the checker too. Checked over the whole
   knob space (every split factor, every interchange and pipelining, and
   each split's own reorder/pipeline compositions): of every golden source
   on every platform, with its depth-1 and depth-2 action states there, and
   of generated kernels. *)
let knob_candidates p k =
  let apply spec k = Result.to_option (Xpiler_passes.Pass.apply ~platform:p spec k) in
  let reorders_and_pipelines k =
    List.filter_map
      (fun spec -> apply spec k)
      (List.map (fun var -> Xpiler_passes.Pass.Loop_reorder { var }) (Knobs.reorderable_loops k)
      @ List.map (fun var -> Xpiler_passes.Pass.Pipeline { var }) (Knobs.pipelinable_loops k))
  in
  let splits =
    List.concat_map
      (fun (var, extent) ->
        List.filter_map
          (fun factor -> apply (Xpiler_passes.Pass.Loop_split { var; factor }) k)
          (Knobs.split_factors p ~extent))
      (Knobs.splittable_loops k)
  in
  splits @ reorders_and_pipelines k @ List.concat_map reorders_and_pipelines splits

(* the candidates of [k] the checker rejects, when it accepts [k] itself *)
let rejected_candidates p k =
  if Result.is_error (Checker.compile p k) then []
  else List.filter (fun k' -> Result.is_error (Checker.compile p k')) (knob_candidates p k)

let test_candidates_pass_checker () =
  let states = ref 0 in
  List.iter
    (fun (op : Opdef.t) ->
      let shape = List.hd op.Opdef.shapes in
      let buffer_sizes =
        List.map (fun (b : Opdef.buffer_spec) -> (b.buf_name, b.size shape)) op.Opdef.buffers
      in
      let step p k =
        List.filter_map
          (fun spec -> Result.to_option (Xpiler_passes.Pass.apply ~platform:p spec k))
          (Actions.enumerate ~buffer_sizes p k)
      in
      List.iter
        (fun (q : Platform.t) ->
          let source = Idiom.source q.Platform.id op shape in
          List.iter
            (fun (p : Platform.t) ->
              let depth1 = step p source in
              let depth2 = List.concat_map (step p) depth1 in
              List.iter
                (fun k ->
                  if Result.is_ok (Checker.compile p k) then incr states;
                  match rejected_candidates p k with
                  | [] -> ()
                  | k' :: _ ->
                    Alcotest.failf "%s on %s: a candidate of %s is rejected:\n%s" op.Opdef.name
                      p.Platform.name k.Kernel.name
                      (match Checker.compile p k' with
                      | Error es -> Checker.errors_to_string es
                      | Ok () -> ""))
                ((source :: depth1) @ depth2))
            Platform.all)
        Platform.all)
    Registry.all;
  (* 13,264 accepted states at the time of writing *)
  Alcotest.(check bool) "accepted states checked" true (!states > 10_000)

let prop_candidates_pass_checker =
  QCheck.Test.make ~name:"tuner candidates of accepted kernels pass the checker" ~count:100
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let k = Test_support.Kgen.kernel (Xpiler_util.Rng.create seed) in
      List.for_all (fun p -> rejected_candidates p k = []) Platform.all)

(* A composed candidate is built from its seed's kernel, not re-applied from
   the input: replaying the winner's specs from the input must rebuild the
   winner exactly. Checked on every operator's translated kernel and its
   depth-1 action states on every platform; the measured total is
   pinned, so building candidates differently cannot change what the
   search measures. *)
let test_intra_specs_replay () =
  let composed = ref 0 and evaluated = ref 0 in
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
    evaluated := !evaluated + st.Intra.evaluated
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
  Alcotest.(check int) "evaluated" 5297 !evaluated

(* ---- the tuner's structural queries against their naive walks -------------
   [Test_support.Naive] keeps [Actions.enumerate] and
   [Loop_pass.interchange_legal] as they were before each became one
   allocation-light walk. The states are every operator's golden source on
   every platform, with its depth-1 and depth-2 action states on every
   platform (the states "candidates pass the checker" walks); the
   interchanges are the ones [Knobs.reorderable_loops] offers on them. *)
let golden_states =
  lazy
    (let states = ref [] in
     List.iter
       (fun (op : Opdef.t) ->
         let shape = List.hd op.Opdef.shapes in
         let buffer_sizes =
           List.map (fun (b : Opdef.buffer_spec) -> (b.buf_name, b.size shape)) op.Opdef.buffers
         in
         let step p k =
           List.filter_map
             (fun spec -> Result.to_option (Xpiler_passes.Pass.apply ~platform:p spec k))
             (Actions.enumerate ~buffer_sizes p k)
         in
         List.iter
           (fun (q : Platform.t) ->
             let source = Idiom.source q.Platform.id op shape in
             List.iter
               (fun (p : Platform.t) ->
                 let depth1 = step p source in
                 List.iter
                   (fun k -> states := (p, buffer_sizes, k) :: !states)
                   ((source :: depth1) @ List.concat_map (step p) depth1))
               Platform.all)
           Platform.all)
       Registry.all;
     List.rev !states)

(* each enumeration the states ask for: with and without [buffer_sizes] *)
let enumerations () =
  List.concat_map (fun (p, buffer_sizes, k) -> [ (p, buffer_sizes, k); (p, [], k) ])
    (Lazy.force golden_states)

let test_enumerate_matches_naive () =
  let calls = enumerations () in
  (* 23,051 states at the time of writing *)
  Alcotest.(check bool) "states" true (List.length calls > 40_000);
  List.iter
    (fun (p, buffer_sizes, (k : Kernel.t)) ->
      if Actions.enumerate ~buffer_sizes p k <> Test_support.Naive.enumerate ~buffer_sizes p k
      then
        Alcotest.failf "%s on %s (%d buffer sizes): actions differ from the naive walk"
          k.Kernel.name p.Platform.name (List.length buffer_sizes))
    calls

(* minor words per call of [f] over [xs], after one warm-up pass *)
let words_per_call f xs =
  List.iter f xs;
  let before = Gc.minor_words () in
  List.iter f xs;
  (Gc.minor_words () -. before) /. float_of_int (List.length xs)

(* The one walk allocated 337 minor words per call against the naive
   walk's 1,699 over these calls (x86-64, OCaml 5.1); the gate holds it to
   a third. *)
let test_enumerate_allocation () =
  let calls = enumerations () in
  let per_call (enumerate : ?buffer_sizes:_ -> _) =
    words_per_call
      (fun (p, buffer_sizes, k) -> ignore (Sys.opaque_identity (enumerate ~buffer_sizes p k)))
      calls
  in
  let fast = per_call Actions.enumerate and naive = per_call Test_support.Naive.enumerate in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per enumeration <= 1/3 of naive %.1f" fast naive)
    true
    (fast <= naive /. 3.0)

(* the interchanges [reorder] would check on the golden states *)
let offered_interchanges () =
  List.concat_map
    (fun (_, _, (k : Kernel.t)) ->
      List.concat_map
        (fun var ->
          let found = ref [] in
          Stmt.iter
            (fun s ->
              match s with
              | Stmt.For
                  { var = v1; extent = Expr.Int e1;
                    body = [ Stmt.For { var = v2; extent = Expr.Int e2; body; _ } ]; _ }
                when String.equal v1 var ->
                found := (v1, e1, v2, e2, body) :: !found
              | _ -> ())
            k.Kernel.body;
          !found)
        (Knobs.reorderable_loops k))
    (Lazy.force golden_states)

(* Same answers as the naive walk on every offered interchange, in a
   quarter of its allocation: the one walk allocated 37 minor words per
   call against the naive walk's 417 (x86-64, OCaml 5.1). *)
let test_interchange_on_golden_states () =
  let nests = offered_interchanges () in
  (* 32,611 at the time of writing, 1,105 of them illegal *)
  Alcotest.(check bool) "interchanges" true (List.length nests > 30_000);
  let illegal = ref 0 in
  List.iter
    (fun (v1, e1, v2, e2, body) ->
      let legal = Xpiler_passes.Loop_pass.interchange_legal ~v1 ~e1 ~v2 ~e2 body in
      if not legal then incr illegal;
      if legal <> Test_support.Naive.interchange_legal ~v1 ~e1 ~v2 ~e2 body then
        Alcotest.failf "interchange of %s < %d and %s < %d differs from the naive walk:\n%s" v1
          e1 v2 e2 (Stmt.to_string body))
    nests;
  Alcotest.(check bool) "some illegal" true (!illegal > 0);
  let per_call legal =
    words_per_call
      (fun (v1, e1, v2, e2, body) -> ignore (Sys.opaque_identity (legal ~v1 ~e1 ~v2 ~e2 body)))
      nests
  in
  let fast = per_call Xpiler_passes.Loop_pass.interchange_legal
  and naive = per_call Test_support.Naive.interchange_legal in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per legality check <= 1/4 of naive %.1f" fast naive)
    true
    (fast <= naive /. 4.0)

(* Eleven interchangeable nests of prime extents (so no split factor),
   then a loop that copies and computes: on the MLU its depth-1 candidates
   overrun the cap after the interchanges, and the pipelining they crowd
   out would win. The golden states seldom reach the cap there, so this
   kernel is what pins the order of the two walks. *)
let capped_reshapes =
  let open Expr.Infix in
  let nest n =
    let x = Printf.sprintf "x%d" n and y = Printf.sprintf "y%d" n in
    Builder.for_ x (int 7)
      [ Builder.for_ y (int 5)
          [ Builder.store "out" ((v x * int 5) + v y) (load "a" ((v x * int 5) + v y) * flt 2.0) ]
      ]
  in
  Kernel.make ~name:"capped_reshapes"
    ~params:[ Builder.buffer "a"; Builder.buffer "out" ]
    ~launch:[]
    (List.init 11 nest
    @ [ Builder.alloc "s" Scope.Nram 16;
        Builder.for_ "i" (int 7)
          [ Builder.memcpy ~dst:"s" ~dst_off:(int 0) ~src:"a" ~src_off:(v "i" * int 16) (int 16);
            Builder.for_ "j" (int 13)
              [ Builder.store "out" ((v "i" * int 16) + v "j") (load "s" (v "j") + flt 1.0) ]
          ]
      ])

(* [Intra.tune] against its [Seq]-based predecessor on every golden state
   and on [capped_reshapes], on every platform: the same winner (specs,
   kernel, throughput bits) and the same count of measured candidates.
   Most of a tune's words are the checker's, the passes' and the cost
   model's, which both versions share: the plain loops allocated 2,302
   minor words per tune against the lazy sequences' 2,795 (x86-64, OCaml
   5.1), and the gate keeps that saving. *)
let test_intra_matches_naive () =
  let calls =
    List.map (fun (p, _, k) -> (p, k)) (Lazy.force golden_states)
    @ List.map (fun p -> (p, capped_reshapes)) Platform.all
  in
  List.iter
    (fun (p, (k : Kernel.t)) ->
      let v, st = Intra.tune ~platform:p k and v', st' = Test_support.Naive.intra_tune ~platform:p k in
      if
        v.Intra.specs <> v'.Intra.specs
        || (not (Kernel.equal v.Intra.kernel v'.Intra.kernel))
        || Int64.bits_of_float v.Intra.throughput <> Int64.bits_of_float v'.Intra.throughput
        || st.Intra.evaluated <> st'.Intra.evaluated
      then
        Alcotest.failf "%s on %s: tuned to %s (%d measured), naive to %s (%d measured)"
          k.Kernel.name p.Platform.name
          (String.concat "; " (List.map Xpiler_passes.Pass.describe v.Intra.specs))
          st.Intra.evaluated
          (String.concat "; " (List.map Xpiler_passes.Pass.describe v'.Intra.specs))
          st'.Intra.evaluated)
    calls;
  let per_call (tune : platform:_ -> _) =
    words_per_call (fun (p, k) -> ignore (Sys.opaque_identity (tune ~platform:p k))) calls
  in
  let fast = per_call Intra.tune and naive = per_call Test_support.Naive.intra_tune in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per tune <= 0.85 of naive %.1f" fast naive)
    true
    (fast <= naive *. 0.85)

(* ---- rejected input ------------------------------------------------------- *)

(* the tensorized MLU gemm fails the CUDA checker: it has no valid variant,
   so it tunes to 0 without measuring anything — the same empty
   receipt MCTS records for a rejected state *)
let test_intra_rejected_input () =
  let k = Idiom.source Platform.Bang gemm gemm_shape in
  Alcotest.(check bool) "checker rejects" true
    (Result.is_error (Checker.compile Platform.cuda k));
  let v, st = Intra.tune ~platform:Platform.cuda k in
  Alcotest.(check (float 0.0)) "throughput" 0.0 v.Intra.throughput;
  Alcotest.(check int) "evaluated" 0 st.Intra.evaluated

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

(* The search is pinned to what it returned before the rollout reused the
   expanded child's action list and the action and legality walks were
   rewritten: the tuned pipeline's search over the untuned translation of
   gemm cuda->bang and softmax cuda->hip, at each operator's first shape. *)
let test_mcts_pinned () =
  let pinned name src dst ~specs ~reward_bits ~nodes =
    let op = Registry.find_exn name in
    let shape = List.hd op.Opdef.shapes in
    let outcome = Xpiler_core.Xpiler.transcompile ~src ~dst ~op ~shape () in
    let k = Option.get outcome.Xpiler_core.Xpiler.kernel in
    let buffer_sizes =
      List.map (fun (b : Opdef.buffer_spec) -> (b.buf_name, b.size shape)) op.Opdef.buffers
    in
    let r =
      Mcts.search ~config:Xpiler_core.Config.tuned.Xpiler_core.Config.mcts ~buffer_sizes
        ~platform:(Platform.of_id dst) k
    in
    Alcotest.(check (list string)) (name ^ " best specs") specs
      (List.map Xpiler_passes.Pass.describe r.Mcts.best_specs);
    Alcotest.(check int64) (name ^ " best reward bits") reward_bits
      (Int64.bits_of_float r.Mcts.best_reward);
    Alcotest.(check int) (name ^ " nodes expanded") nodes r.Mcts.nodes_expanded
  in
  pinned "gemm" Platform.Cuda Platform.Bang
    ~specs:[ "loop-recovery"; "loop-bind(z_t1 -> taskId)" ]
    ~reward_bits:4817703169794324358L ~nodes:41;
  pinned "softmax" Platform.Cuda Platform.Hip
    ~specs:
      [ "cache(out -> shared, readwrite, under=-, base=0, size=256)"; "loop-split(p, 32)";
        "loop-split(p_1, 8)"; "loop-bind(p -> threadIdx.x)"; "loop-bind(p -> blockIdx.y)" ]
    ~reward_bits:4820743423719119246L ~nodes:44

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
          Alcotest.test_case "estimate bits on tuning states" `Quick
            test_estimate_matches_naive_on_tuning_states;
          Alcotest.test_case "candidates pass the checker" `Quick test_candidates_pass_checker;
          Alcotest.test_case "rejected input tunes to 0" `Quick test_intra_rejected_input;
          Alcotest.test_case "winner replays from its specs" `Quick test_intra_specs_replay
        ] );
      ( "naive",
        [ Alcotest.test_case "enumerate = naive" `Quick test_enumerate_matches_naive;
          Alcotest.test_case "enumerate allocates a third of naive" `Quick
            test_enumerate_allocation;
          Alcotest.test_case "interchange legality = naive on golden states" `Quick
            test_interchange_on_golden_states;
          Alcotest.test_case "intra = naive" `Quick test_intra_matches_naive
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
          Alcotest.test_case "journal counts" `Quick test_mcts_journal_counts;
          Alcotest.test_case "pinned searches" `Quick test_mcts_pinned
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_mcts_best_is_valid;
          QCheck_alcotest.to_alcotest prop_estimate_matches_naive;
          QCheck_alcotest.to_alcotest prop_candidates_pass_checker
        ] )
    ]
