(* Fuzzing over randomly generated kernels: the strongest invariants in the
   system — front-end round trips and pass-sequence semantic preservation. *)

open Xpiler_ir
open Xpiler_machine
open Xpiler_lang
module Pass = Xpiler_passes.Pass
module Rng = Xpiler_util.Rng
module Kgen = Test_support.Kgen
module Tcommon = Test_support.Tcommon

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000)

let kernel_of_seed seed = Kgen.kernel (Rng.create seed)
let buf_size b = List.assoc b Kgen.buffer_sizes

(* every generated kernel is well-formed and executes without error *)
let prop_generator_sound =
  QCheck.Test.make ~name:"generated kernels are valid and executable" ~count:200 arb_seed
    (fun seed ->
      let k = kernel_of_seed seed in
      match Validate.check k with
      | Error _ -> false
      | Ok () -> (
        let rng = Rng.create (seed + 1) in
        let args = Tcommon.make_args rng ~buf_size k [] in
        match Interp.run k args with _ -> true | exception _ -> false))

(* printer/parser round trip on every dialect that can express the kernel *)
let roundtrip_dialect d seed =
  let k = kernel_of_seed seed in
  let text = Codegen.emit d k in
  match Parser.parse d text with
  | k' -> Tcommon.divergence ~buf_size ~seed:(seed + 7) k k' = None
  | exception Parser.Parse_error _ -> false

let prop_roundtrip_vnni =
  QCheck.Test.make ~name:"roundtrip through C (vnni dialect)" ~count:150 arb_seed
    (roundtrip_dialect Dialect.vnni)

let prop_roundtrip_cuda =
  QCheck.Test.make ~name:"roundtrip through CUDA C" ~count:150 arb_seed
    (roundtrip_dialect Dialect.cuda)

let prop_roundtrip_bang =
  QCheck.Test.make ~name:"roundtrip through BANG C" ~count:150 arb_seed
    (roundtrip_dialect Dialect.bang)

(* random applicable pass sequences preserve semantics *)
let prop_pass_sequences_preserve =
  QCheck.Test.make ~name:"random pass sequences preserve semantics" ~count:80 arb_seed
    (fun seed ->
      let k0 = kernel_of_seed seed in
      let rng = Rng.create (seed * 31 + 5) in
      let platform = Platform.bang in
      let rec apply k n =
        if n = 0 then k
        else begin
          match
            Xpiler_tuning.Actions.enumerate ~buffer_sizes:Kgen.buffer_sizes platform k
          with
          | [] -> k
          | acts -> (
            match Pass.apply ~platform (Rng.choose rng acts) k with
            | Ok k' -> apply k' (n - 1)
            | Error _ -> apply k (n - 1))
        end
      in
      let k' = apply k0 (1 + Rng.int rng 5) in
      Tcommon.divergence ~buf_size ~seed:(seed + 13) k0 k' = None)

(* the intra-pass tuner's chosen variant is always equivalent *)
let prop_intra_preserves =
  QCheck.Test.make ~name:"intra-pass tuning preserves semantics" ~count:60 arb_seed
    (fun seed ->
      let k = kernel_of_seed seed in
      let v = Xpiler_tuning.Intra.tune ~platform:Platform.cuda k in
      Tcommon.divergence ~buf_size ~seed:(seed + 3) k v.Xpiler_tuning.Intra.kernel = None)

(* analyzer soundness: any kernel the static analyzer passes clean must not
   hit an interpreter runtime error (out-of-bounds or otherwise) on random
   inputs. Two thirds of the corpus is perturbed with detail faults so the
   property also exercises genuinely broken kernels. *)
let prop_analyzer_clean_executes =
  QCheck.Test.make ~name:"analyzer-clean kernels execute without runtime errors" ~count:200
    arb_seed (fun seed ->
      let k = kernel_of_seed seed in
      let frng = Rng.create (seed + 13) in
      let k =
        match seed mod 3 with
        | 0 -> k
        | 1 -> (
          match Xpiler_neural.Fault.inject_index frng k with
          | Some (k', _) -> k'
          | None -> k)
        | _ -> (
          match Xpiler_neural.Fault.inject_bound frng k with
          | Some (k', _) -> k'
          | None -> k)
      in
      match
        Xpiler_analysis.Analyzer.errors
          (Xpiler_analysis.Analyzer.analyze ~extents:Kgen.buffer_sizes k)
      with
      | _ :: _ -> true (* diagnosed: the property claims nothing *)
      | [] -> (
        let args = Tcommon.make_args (Rng.create (seed + 2)) ~buf_size k [] in
        match Interp.run k args with
        | _ -> true
        | exception Interp.Runtime_error _ -> false))

(* differential property over the two evaluation engines: the closure
   compiler and the tree-walker must agree on outputs (bit-for-bit), stats,
   the scalar-store trace stream and runtime errors — on clean kernels, on
   fault-injected ones, and under fuel exhaustion. [compare] rather than [=]
   so NaN-producing kernels count as agreeing when both engines produce the
   same NaN. *)
let run_engine
    (runner :
      ?fuel:int ->
      ?trace:(string -> int -> float -> unit) ->
      Kernel.t ->
      (string * Interp.arg) list ->
      Interp.stats) ~fuel k args =
  let trace = ref [] in
  match runner ~fuel ~trace:(fun b i x -> trace := (b, i, x) :: !trace) k args with
  | (s : Interp.stats) ->
    Ok (s.steps, s.stores, s.intrinsic_elems, s.memcpy_elems, s.barriers, List.rev !trace)
  | exception Interp.Runtime_error m -> Error m

(* Accumulator kernels, which the general generator never builds: [acc =
   acc + x * y] loops in either operand order (the compiled engine's fused
   float path) next to other float updates (its generic float-slot path),
   over float or int buffers (the fused path's fallback, where an [I * I]
   product keeps [int_binop] semantics), serially or inside a
   thread-parallel chain (per-fiber frame copies of the float slots). An
   accumulator initialized from a load may hold an int and stays boxed. *)
let accum_kernel rng =
  let open Expr.Infix in
  let dtype () = if Rng.bernoulli rng 0.3 then Dtype.I32 else Dtype.F32 in
  let operand vars = load (Rng.choose rng [ "a"; "b" ]) (Kgen.gen_index rng vars) in
  let update vars =
    let x = operand vars and y = operand vars in
    Builder.assign "acc"
      (match Rng.int rng 4 with
      | 0 -> v "acc" + (x * y)
      | 1 -> (x * y) + v "acc"
      | 2 -> (v "acc" * flt 0.5) - x
      | _ -> v "acc" + (x * flt 0.25))
  in
  let init vars =
    match Rng.int rng 3 with
    | 0 -> flt 0.0
    | 1 -> operand vars * flt 0.5
    | _ -> operand vars
  in
  let ext_i = Rng.choose rng [ 2; 4; 8 ] and ext_j = Rng.choose rng [ 2; 4; 8; 16 ] in
  let reduce vars =
    let updates = Stdlib.( + ) 1 (Rng.int rng 2) in
    Builder.for_ "j" (int ext_j) (List.init updates (fun _ -> update (("j", ext_j) :: vars)))
  in
  let body =
    if Rng.bernoulli rng 0.5 then
      [ Builder.for_ "i" (int ext_i)
          (let vars = [ ("i", ext_i) ] in
           [ Builder.let_ "acc" (init vars); reduce vars;
             Builder.store "out" (Kgen.gen_index rng vars) (v "acc") ])
      ]
    else begin
      (* a thread block: fibers share the pre-chain accumulator's value and
         each updates its own copy *)
      let vars = [ ("ty", 2); ("tx", ext_i) ] in
      let inner_let = Rng.bernoulli rng 0.5 in
      (if inner_let then [] else [ Builder.let_ "acc" (init []) ])
      @ [ Builder.par_for Axis.Thread_x "tx" (int ext_i)
            [ Builder.par_for Axis.Thread_y "ty" (int 2)
                ((if inner_let then [ Builder.let_ "acc" (init vars) ] else [])
                @ [ reduce vars;
                    Builder.sync;
                    Builder.store "out" (Kgen.gen_index rng vars) (v "acc") ])
            ]
        ]
    end
  in
  Kernel.make ~name:"accum"
    ~params:
      [ Builder.buffer ~dtype:(dtype ()) "a"; Builder.buffer ~dtype:(dtype ()) "b";
        Builder.buffer "out" ]
    body

let prop_engines_agree =
  QCheck.Test.make ~name:"compiled and tree engines agree" ~count:350 arb_seed
    (fun seed ->
      let g = Rng.create ((seed * 7) + 1) in
      let accum = Rng.bernoulli g 0.4 in
      let k = if accum then accum_kernel g else kernel_of_seed seed in
      let frng = Rng.create (seed + 17) in
      let k =
        match seed mod 3 with
        | 0 -> k
        | 1 -> (
          match Xpiler_neural.Fault.inject_index frng k with
          | Some (k', _) -> k'
          | None -> k)
        | _ -> (
          match Xpiler_neural.Fault.inject_bound frng k with
          | Some (k', _) -> k'
          | None -> k)
      in
      (* a fifth of the corpus runs out of fuel: exhaustion must strike at
         the same step with the same message in both engines *)
      let fuel = if seed mod 5 = 0 then 100 else 200_000_000 in
      let args = Tcommon.make_args (Rng.create (seed + 2)) ~buf_size k [] in
      (* int buffers holding fractions (as a memcpy from a float buffer
         leaves them): an int load must truncate, whichever path runs it *)
      let args =
        if not accum then args
        else
          List.map
            (fun (n, a) ->
              match a with
              | Interp.Buf t when not (Dtype.is_float t.Tensor.dtype) ->
                (n, Interp.Buf { t with Tensor.data = Array.map (fun x -> x /. 3.0) t.Tensor.data })
              | a -> (n, a))
            args
      in
      let a_tree = Tcommon.clone_args args in
      let a_comp = Tcommon.clone_args args in
      let r_tree = run_engine Interp.run_tree ~fuel k a_tree in
      let r_comp = run_engine Interp.run ~fuel k a_comp in
      compare r_tree r_comp = 0
      && compare (Tcommon.buffers a_tree) (Tcommon.buffers a_comp) = 0)

(* handcrafted dynamic errors: both engines must raise Runtime_error with the
   exact same message *)
let test_engine_error_parity () =
  let open Expr.Infix in
  let out = Builder.buffer "out" in
  let mk name body = Kernel.make ~name ~params:[ out ] ~launch:[] body in
  let cases =
    [ ( "div0",
        mk "div0"
          [ Builder.for_ "i" (int 4)
              [ Builder.let_ "x" (int 7 / (v "i" - v "i"));
                Builder.store "out" (v "i") (v "x")
              ]
          ] );
      ( "mod0",
        mk "mod0" [ Builder.store "out" (int 0) (Expr.Cast (Dtype.F32, int 5 % int 0)) ] );
      ("oob_store", mk "oob_store" [ Builder.store "out" (int 100_000) (flt 1.0) ]);
      ( "oob_load",
        mk "oob_load" [ Builder.store "out" (int 0) (load "out" (int (-1))) ] );
      ( "neg_extent",
        mk "neg_extent"
          [ Builder.for_ "i" (int 0 - int 3) [ Builder.store "out" (v "i") (flt 0.0) ] ] );
      ("fuel", mk "fuel" [ Builder.for_ "i" (int 1_000_000) [ Builder.let_ "x" (v "i") ] ])
    ]
  in
  List.iter
    (fun (name, k) ->
      let args () = [ ("out", Interp.Buf (Tensor.create 1024)) ] in
      let err runner = match run_engine runner ~fuel:1000 k (args ()) with
        | Ok _ -> Alcotest.failf "%s: expected Runtime_error" name
        | Error m -> m
      in
      Alcotest.(check string)
        (name ^ ": same error") (err Interp.run_tree) (err Interp.run))
    cases

(* regression: a comparison over float operands is an integer-valued
   expression with non-integer children — the closure compiler once
   diverged (infinite dispatch loop) compiling it, and the random generator
   never produces the shape *)
let test_engine_float_compare () =
  let k =
    let open Expr.Infix in
    Kernel.make ~name:"relu_mask"
      ~params:[ Builder.buffer "a"; Builder.buffer "out" ]
      ~launch:[]
      [ Builder.for_ "i" (int 16)
          [ Builder.store "out" (v "i")
              (Expr.Select (load "a" (v "i") > flt 0.0, load "a" (v "i"), flt 0.0))
          ]
      ]
  in
  let args () =
    [ ("a", Interp.Buf (Tensor.random (Rng.create 5) 16));
      ("out", Interp.Buf (Tensor.create 16))
    ]
  in
  let a_tree = args () and a_comp = args () in
  let r_tree = run_engine Interp.run_tree ~fuel:10_000 k a_tree in
  let r_comp = run_engine Interp.run ~fuel:10_000 k a_comp in
  Alcotest.(check bool) "engines agree" true
    (compare r_tree r_comp = 0
    && compare (Tcommon.buffers a_tree) (Tcommon.buffers a_comp) = 0)

(* the repair-site numbering agrees with itself: [Site.stmt] finds the
   statement [Site.walk] paired with each site, and [Site.set] changes that
   site and no other *)
let sites_consistent (k : Kernel.t) =
  let before = Site.walk k in
  List.for_all
    (fun (site, stmt) ->
      (match Site.stmt k site with Some s -> s == stmt | None -> false)
      &&
      let value =
        match site with
        | Site.Param { current; _ } | Site.Bound { current; _ } -> current + 1
        | Site.Index _ -> 1
      in
      (* a site's value: its constant, or its store's index *)
      let index_equal st0 st1 =
        match (st0, st1) with
        | Stmt.Store a, Stmt.Store b -> Expr.equal a.index b.index
        | _ -> true
      in
      let after = Site.walk (Site.set k site value) in
      List.length after = List.length before
      && List.for_all2
           (fun (s0, st0) (s1, st1) ->
             if s0 == site then
               match s1 with
               | Site.Param { current; _ } | Site.Bound { current; _ } -> current = value
               | Site.Index _ -> s1 = s0 && not (index_equal st0 st1)
             else s1 = s0 && index_equal st0 st1)
           before after)
    before

(* generated guards have empty else branches; mirror each then branch into
   its else branch so the numbering order across branches is exercised *)
let with_else_branches (k : Kernel.t) =
  Kernel.map_body
    (Stmt.map_block (function
      | Stmt.If ({ else_ = []; _ } as r) -> Some (Stmt.If { r with else_ = r.then_ })
      | _ -> None))
    k

let prop_sites_consistent =
  QCheck.Test.make ~name:"repair-site lookup and rewrite agree with the walk" ~count:150
    arb_seed (fun seed ->
      let k = kernel_of_seed seed in
      sites_consistent k && sites_consistent (with_else_branches k))

let test_golden_sites_consistent () =
  List.iter
    (fun (op : Xpiler_ops.Opdef.t) ->
      let shape = List.hd op.Xpiler_ops.Opdef.shapes in
      List.iter
        (fun (p : Platform.t) ->
          let k = Xpiler_ops.Idiom.source p.Platform.id op shape in
          if not (sites_consistent k) then
            Alcotest.failf "%s @ %s" op.Xpiler_ops.Opdef.name (Platform.id_to_string p.Platform.id))
        Platform.all)
    Xpiler_ops.Registry.all

(* detail-level fault injection + repair round trip: every repairable fault
   class the oracle injects is fixed by the repairer on these kernels *)
let prop_inject_repair =
  QCheck.Test.make ~name:"injected detail faults are repaired or benign" ~count:40 arb_seed
    (fun seed ->
      let k = kernel_of_seed seed in
      (* wrap as a pseudo-operator so the unit-test oracle applies *)
      let op : Xpiler_ops.Opdef.t =
        { name = "fuzz";
          cls = Xpiler_ops.Opdef.Elementwise;
          shapes = [ [] ];
          buffers =
            List.map
              (fun (name, size) ->
                { Xpiler_ops.Opdef.buf_name = name; dtype = Dtype.F32;
                  size = (fun _ -> size);
                  is_output = String.equal name "out"
                })
              Kgen.buffer_sizes;
          serial = (fun _ -> k);
          flops = (fun _ -> 1.0)
        }
      in
      let rng = Rng.create (seed + 99) in
      match Xpiler_neural.Fault.inject_index rng k with
      | None -> true
      | Some (broken, _) -> (
        match Xpiler_ops.Unit_test.check ~trials:1 op [] broken with
        | Xpiler_ops.Unit_test.Pass -> true (* benign *)
        | Xpiler_ops.Unit_test.Fail _ -> (
          match
            Xpiler_repair.Repairer.repair ~platform:Platform.vnni ~op ~shape:[] broken
          with
          | Xpiler_repair.Repairer.Repaired { kernel; _ } ->
            Xpiler_ops.Unit_test.check op [] kernel = Xpiler_ops.Unit_test.Pass
          | Xpiler_repair.Repairer.Gave_up _ ->
            (* acceptable only when the fault hides under control flow *)
            (Xpiler_repair.Localize.localize ~op ~shape:[] broken).Xpiler_repair.Localize
              .unrepairable
            <> [])))

let () =
  (* pinned RNG: the fuzz corpus is reproducible run to run (development used
     many seeds; see DESIGN.md for the bugs the campaign caught) *)
  let rand = Random.State.make [| 20250706 |] in
  Alcotest.run "fuzz"
    [ ( "properties",
        List.map
          (QCheck_alcotest.to_alcotest ~rand)
          [ prop_generator_sound; prop_roundtrip_vnni; prop_roundtrip_cuda;
            prop_roundtrip_bang; prop_pass_sequences_preserve; prop_intra_preserves;
            prop_engines_agree; prop_analyzer_clean_executes; prop_sites_consistent;
            prop_inject_repair ] );
      ( "engines",
        [ Alcotest.test_case "error parity" `Quick test_engine_error_parity;
          Alcotest.test_case "float comparison" `Quick test_engine_float_compare ] );
      ("sites", [ Alcotest.test_case "golden kernels" `Quick test_golden_sites_consistent ])
    ]
