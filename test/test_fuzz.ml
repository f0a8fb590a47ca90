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
      let v, _ = Xpiler_tuning.Intra.tune ~platform:Platform.cuda k in
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
   same NaN. A store trace hook turns off the compiled engine's lowered
   loops, so each kernel also runs [~traced:false]. *)
let run_engine
    (runner :
      ?fuel:int ->
      ?trace:(string -> int -> float -> unit) ->
      Kernel.t ->
      (string * Interp.arg) list ->
      Interp.stats) ?(traced = true) ~fuel k args =
  let trace = ref [] in
  let hook = if traced then Some (fun b i x -> trace := (b, i, x) :: !trace) else None in
  match runner ~fuel ?trace:hook k args with
  | (s : Interp.stats) ->
    Ok (s.steps, s.stores, s.intrinsic_elems, s.memcpy_elems, s.barriers, List.rev !trace)
  | exception Interp.Runtime_error m -> Error m

(* Accumulator kernels, which the general generator never builds: [acc =
   acc + x * y] loops in either operand order next to other float updates
   (the compiled engine's float-slot path), over float or int buffers
   (where an [I * I] product keeps [int_binop] semantics), serially or
   inside a thread-parallel chain (per-fiber frame copies of the float
   slots). An accumulator initialized from a load may hold an int and
   stays boxed. *)
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

(* Innermost affine loops, the shapes the compiled engine runs as one OCaml
   loop and their near misses, which it runs per element: a fused MAC in
   either operand order (only [acc = acc + a * b] lowers), a float-slot
   reduction, or one store (elementwise, in place [x[p] = x[p] - m], or a
   stride-0 reduction [x[c] = x[c] + y[p]] or [x[c] = x[c] + e] of another
   sum), with strides of either sign over float or int buffers, from a loop
   start of 0 to 2. Some indices leave their buffer at the last iteration
   only. *)
let affine_kernel rng =
  let size = Kgen.buf_size in
  let dtype () = if Rng.bernoulli rng 0.25 then Dtype.I32 else Dtype.F32 in
  let ext_i = 1 + Rng.int rng 3 and ext = 1 + Rng.int rng 12 and lo = Rng.int rng 3 in
  (* [first + stride * (p - lo) + outer * i]; at an edge the last iteration
     reads or writes one past the end, or at -1 *)
  let index () =
    let stride = Rng.int rng 7 - 3 in
    let span = abs stride * (ext - 1) in
    let first, outer =
      if Rng.bernoulli rng 0.1 then ((if stride >= 0 then size - span else span - 1), 0)
      else begin
        let outer = Rng.int rng 3 in
        let first = Rng.int rng (max 1 (size - span - (outer * ext_i))) in
        ((if stride >= 0 then first else first + span), outer)
      end
    in
    let open Expr.Infix in
    int (Stdlib.( - ) first (Stdlib.( * ) stride lo)) + (int stride * v "p") + (int outer * v "i")
  in
  let open Expr.Infix in
  let buf () = Rng.choose rng [ "a"; "b"; "out" ] in
  let ld () = load (buf ()) (index ()) in
  let value () =
    match Rng.int rng 6 with
    | 0 -> ld () - v "m"
    | 1 -> (ld () * flt 0.5) + ld ()
    | 2 -> Expr.Unop (Expr.Tanh, ld () + int 1)
    | 3 -> Expr.Binop (Expr.Max, ld (), Expr.Unop (Expr.Neg, v "m"))
    | 4 -> ld () * ld ()
    | _ -> ld () / flt 3.0
  in
  let inner =
    match Rng.int rng 7 with
    | 0 -> Builder.assign "acc" (v "acc" + (ld () * ld ()))
    | 1 -> Builder.assign "acc" ((ld () * ld ()) + v "acc")
    | 2 -> Builder.assign "acc" (Expr.Binop (Expr.Min, v "acc", ld () * v "m"))
    | 3 | 4 -> Builder.store "out" (index ()) (value ())
    | 5 ->
      let b = buf () and i = index () in
      Builder.store b i (load b i - v "m")
    | _ ->
      let b = buf () and c = int (Rng.int rng size) in
      Builder.store b c (load b c + if Rng.bool rng then ld () else value ())
  in
  (* [m] from a bare load may hold an int, so it stays boxed and blocks the
     lowering of any value that reads it *)
  let m = if Rng.bernoulli rng 0.8 then load "a" (v "i") * flt 0.5 else load "a" (v "i") in
  Kernel.make ~name:"affine"
    ~params:
      [ Builder.buffer ~dtype:(dtype ()) "a"; Builder.buffer ~dtype:(dtype ()) "b";
        Builder.buffer ~dtype:(dtype ()) "out" ]
    [ Builder.for_ "i" (int ext_i)
        [ Builder.let_ "m" m; Builder.let_ "acc" (flt 0.0);
          Builder.for_ "p" ~lo:(int lo) (int ext) [ inner ];
          Builder.store "out" (v "i") (v "acc")
        ]
    ]

(* Perfect nests, the shapes the compiled engine runs as one OCaml loop
   nest and their near misses (a nest whose head check fails runs per
   element at every level): 2 or 3 levels with extents 0 to 4 from a start of 0 to 2, strides of
   either sign or 0 per level, and a body of the forms [affine_kernel]
   lowers or a store [d[f] = d[f] + e] whose index stays put in the inner
   levels, where [e] may read [d] too. Some indices leave their buffer only
   at the last corner; some inner bounds read an outer counter, which must
   not lower; an inner counter may shadow the variable an inner bound
   reads; some nests run inside a thread-parallel chain. *)
let nest_kernel rng =
  let size = Kgen.buf_size in
  let depth = 2 + Rng.int rng 2 in
  let shadow = Rng.bernoulli rng 0.15 in
  (* the innermost counter shadows the [n] that level 1's extent reads *)
  let names =
    Array.init depth (fun l -> if shadow && l = depth - 1 then "n" else [| "i"; "j"; "k" |].(l))
  in
  let ext = Array.init depth (fun _ -> Rng.int rng 5) in
  let lo = Array.init depth (fun _ -> Rng.int rng 3) in
  let dtype () = if Rng.bernoulli rng 0.1 then Dtype.I32 else Dtype.F32 in
  (* [first + sum_l stride_l * (v_l - lo_l)], not moving from level [still]
     on; at an edge its extreme corner is one past either end *)
  let index ?(still = depth) () =
    let strides = Array.init depth (fun l -> if l >= still then 0 else Rng.int rng 7 - 3) in
    let reach sgn =
      Array.fold_left ( + ) 0
        (Array.mapi (fun l s -> max 0 (sgn * s * max 0 (ext.(l) - 1))) strides)
    in
    let pos = reach 1 and neg = reach (-1) in
    let first =
      if Rng.bernoulli rng 0.1 then if Rng.bool rng then size - pos else neg - 1
      else neg + Rng.int rng (max 1 (size - pos - neg))
    in
    let k = first - Array.fold_left ( + ) 0 (Array.mapi (fun l s -> s * lo.(l)) strides) in
    Expr.Infix.(
      Array.fold_left ( + ) (int k) (Array.mapi (fun l s -> int s * v names.(l)) strides))
  in
  let buf () = Rng.choose rng [ "a"; "b"; "out" ] in
  let ld () = Expr.Infix.load (buf ()) (index ()) in
  let value () =
    Expr.Infix.(
      match Rng.int rng 4 with
      | 0 -> ld () - v "m"
      | 1 -> (ld () * flt 0.5) + ld ()
      | 2 -> Expr.Unop (Expr.Tanh, ld ())
      | _ -> ld () * ld ())
  in
  (* a store index that stays put from a level from 1 on *)
  let still () = index ~still:(1 + Rng.int rng (depth - 1)) () in
  let body =
    Expr.Infix.(
      match Rng.int rng 9 with
      | 0 -> Builder.assign "acc" (v "acc" + (ld () * ld ()))
      | 1 -> Builder.assign "acc" ((ld () * ld ()) + v "acc")
      | 2 -> Builder.assign "acc" (Expr.Binop (Expr.Min, v "acc", ld () * v "m"))
      | 7 -> Builder.assign "acc" (Expr.Binop (Expr.Max, v "acc", ld ()))
      | 8 -> Builder.assign "acc" (ld () - v "acc")
      | 3 -> Builder.store "out" (index ()) (value ())
      | 4 ->
        (* a reduction, as a MAC or another sum *)
        let d = buf () and f = still () in
        Builder.store d f (load d f + if Rng.bool rng then ld () * ld () else value ())
      | 5 ->
        let d = buf () and f = index ~still:(Rng.int rng depth) () in
        Builder.store d f (load d f + ld ())
      | _ ->
        (* the same, with [e] reading the reduced buffer *)
        let d = buf () and f = still () in
        Builder.store d f (load d f + load d (index ())))
  in
  let rec level l =
    if l = depth then [ body ]
    else begin
      let extent =
        if l = 1 && shadow then Expr.Var "n"
        else if l > 0 && Rng.bernoulli rng 0.15 then
          (* triangular: the bound reads the counter above *)
          Expr.Binop (Expr.Add, Expr.Var names.(l - 1), Expr.Int ext.(l))
        else Expr.Int ext.(l)
      in
      [ Builder.for_ names.(l) ~lo:(Expr.Int lo.(l)) extent (level (l + 1)) ]
    end
  in
  let m =
    Expr.Infix.(if Rng.bernoulli rng 0.8 then load "a" (int 0) * flt 0.5 else load "a" (int 0))
  in
  let prelude =
    [ Builder.let_ "n" (Expr.Int ext.(1)); Builder.let_ "m" m; Builder.let_ "acc" (Expr.Float 0.0) ]
  in
  let body = prelude @ level 0 @ [ Builder.store "out" (Expr.Int 0) (Expr.Var "acc") ] in
  Kernel.make ~name:"nest"
    ~params:
      [ Builder.buffer ~dtype:(dtype ()) "a"; Builder.buffer ~dtype:(dtype ()) "b";
        Builder.buffer ~dtype:(dtype ()) "out" ]
    (if Rng.bernoulli rng 0.25 then [ Builder.par_for Axis.Thread_x "tx" (Expr.Int 2) body ]
     else body)

(* Scratch tensors and barrier-free thread chains, the shapes the compiled
   engine runs out of its frames' own scratch. An [Alloc] inside a serial
   loop, whose tensor each iteration reads before writing it (it must read
   zeros, not the iteration before's values), and an [Alloc] per thread,
   which each thread likewise reads first. They run in the kernel's frame
   or inside a chain of 1 to 3 thread-parallel levels with no barrier,
   whose inner bounds read the outer chain variables: an extent [c - v]
   goes negative after positive ones, and an extent read from [b[0]], which
   a thread may store to, must be the value before any thread ran. The
   body assigns a scalar of the enclosing scope ([x], a float slot or
   boxed), which each thread must see as the chain found it, and which is
   stored after the chain too. *)
let scratch_kernel rng =
  let depth = Rng.int rng 4 in
  let names = [| "tx"; "ty"; "tz" |] and axes = Axis.[| Thread_x; Thread_y; Thread_z |] in
  let size = 2 + Rng.int rng 4 and iters = 1 + Rng.int rng 3 in
  let sdtype () = if Rng.bernoulli rng 0.2 then Dtype.I32 else Dtype.F32 in
  let int = Expr.Infix.int and flt = Expr.Infix.flt and v = Expr.Infix.v in
  let load = Expr.Infix.load and ( +: ) = Expr.Infix.( + ) and ( *: ) = Expr.Infix.( * ) in
  (* a thread's number: its chain variables in base 8 *)
  let thread =
    List.fold_left (fun acc l -> (acc *: int 8) +: v names.(l)) (int 0) (List.init depth Fun.id)
  in
  let slot e = Expr.Binop (Expr.Mod, e, int size) in
  let at e = Expr.Binop (Expr.Mod, e, int Kgen.buf_size) in
  let x_value = Rng.choose rng [ flt 0.5; load "a" (int 1); int 1 ] in
  let loop_body =
    [ Builder.alloc ~dtype:(sdtype ()) "s" Scope.Local size;
      (* zeros, whatever the iteration before stored *)
      Builder.store "out" (at ((thread *: int 3) +: v "i")) (load "s" (slot (v "i")));
      Builder.store "s" (slot (v "i")) (load "a" (at ((thread *: int 2) +: v "i")) +: v "x")
    ]
    @ (if Rng.bool rng then
         [ Builder.intrin Intrin.Vec_add ~dst:("s", int 0) ~srcs:[ ("s", int 0); ("b", v "i") ]
             [ int size ]
         ]
       else [])
    @ [ Builder.assign "x" (v "x" +: (load "s" (slot (v "i" +: int 1)) *: flt 0.5)) ]
  in
  let per_thread =
    if depth > 0 && Rng.bool rng then
      [ Builder.alloc ~dtype:(sdtype ()) "u" Scope.Local size;
        Builder.store "out" (at (thread +: int 200)) (load "u" (slot thread));
        Builder.store "u" (slot (thread +: int 1)) (v "x")
      ]
    else []
  in
  let body =
    per_thread
    @ [ Builder.for_ "i" (int iters) loop_body;
        Builder.store "out" (at (thread +: int 100)) (v "x")
      ]
    @ if depth > 0 && Rng.bernoulli rng 0.3 then [ Builder.store "b" (int 0) (flt 1.0) ] else []
  in
  let rec chain l =
    if l = depth then body
    else begin
      let outer = if l > 0 then v names.(l - 1) else int 0 in
      let lo = if l > 0 && Rng.bool rng then outer else int (Rng.int rng 2) in
      let extent =
        if l = 0 then int (Rng.int rng 4)
        else
          match Rng.int rng 4 with
          | 0 -> int (1 + Rng.int rng 3)
          | 1 -> outer +: int 1
          | 2 -> Expr.Binop (Expr.Sub, int (Rng.int rng 3), outer)
          | _ -> Expr.Cast (Dtype.I32, load "b" (int 0)) +: int 2
      in
      [ Stmt.For
          { var = names.(l); lo; extent; kind = Stmt.Parallel axes.(l); body = chain (l + 1) }
      ]
    end
  in
  Kernel.make ~name:"scratch"
    ~params:[ Builder.buffer "a"; Builder.buffer "b"; Builder.buffer "out" ]
    ((Builder.let_ "x" x_value :: chain 0) @ [ Builder.store "out" (int 255) (v "x") ])

(* Scalar expressions, the shapes the compiled engine evaluates unboxed
   ([comp_iint], the postfix programs of float values) or through the
   generic value closures: every integer operator, [neg], [abs], [not] and
   [select] over int lets and loop counters (a boxed scalar parameter [p]
   too, which the property binds to an int or a float), next to float
   arithmetic, [min], [max], [mod], every float unop and [abs] with a
   float-slot or literal operand, mixed int/float operands and casts
   either way. Float operands include [p], loads from the int buffer [b]
   (which truncate) and gathered loads [a[iexp]] that may fall out of
   range deep in an expression. An integer division or modulo by zero, or
   an out-of-range load, must raise the same error in both engines. *)
let scalar_kernel rng =
  let open Expr in
  let int_ops = [ Add; Sub; Mul; Div; Mod; Min; Max; Eq; Ne; Lt; Le; Gt; Ge; And; Or ] in
  let float_ops = [ Add; Sub; Mul; Div; Mod; Min; Max ] in
  let float_unops = [ Neg; Abs; Exp; Log; Sqrt; Rsqrt; Tanh; Erf; Recip; Floor ] in
  let ext = 1 + Rng.int rng 8 in
  let rec iexp d =
    if d = 0 then
      match Rng.int rng 5 with
      | 0 | 1 -> Int (Rng.int_in rng (-3) 3)
      | 2 -> Var "i"
      | 3 -> Var "n"
      | _ -> if Rng.bernoulli rng 0.3 then Var "p" else Var "i"
    else
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 | 4 -> Binop (Rng.choose rng int_ops, iexp (d - 1), iexp (d - 1))
      | 5 -> Unop (Rng.choose rng [ Neg; Abs; Not ], iexp (d - 1))
      | 6 -> Select (iexp (d - 1), iexp (d - 1), iexp (d - 1))
      | 7 -> Cast (Dtype.I32, fexp (d - 1))
      | _ -> iexp 0
  and fexp d =
    if d = 0 then
      match Rng.int rng 8 with
      | 0 | 1 -> Float (float_of_int (Rng.int_in rng (-6) 6) /. 4.0)
      | 2 -> Var "x"
      | 3 -> Load ("a", Var "i")
      | 4 -> Load ("a", iexp 1)
      | 5 -> Load ("b", Var "i")
      | 6 -> Var "p"
      | _ -> Cast (Dtype.F32, Var "i")
    else
      match Rng.int rng 9 with
      | 0 | 1 | 2 | 3 -> Binop (Rng.choose rng float_ops, fexp (d - 1), fexp (d - 1))
      | 4 -> Binop (Rng.choose rng float_ops, fexp (d - 1), iexp (d - 1))
      | 5 -> Unop (Rng.choose rng float_unops, fexp (d - 1))
      | 6 -> Select (iexp (d - 1), fexp (d - 1), fexp (d - 1))
      | _ -> fexp 0
  in
  let at off = Binop (Add, Int off, Var "i") in
  Kernel.make ~name:"scalar"
    ~params:
      [ Builder.buffer "a"; Builder.buffer ~dtype:Dtype.I32 "b"; Builder.buffer "out";
        Builder.scalar "p" ]
    [ Builder.let_ "n" (Int (Rng.int_in rng (-2) 5));
      Builder.let_ "x" (Float 0.5);
      Builder.for_ "i" (Int ext)
        [ Builder.let_ "k" (iexp 3);
          Builder.store "out" (at 0) (Var "k");
          Builder.let_ "y" (fexp 3);
          Builder.store "out" (at 16) (Var "y");
          Builder.assign "x" (fexp 2);
          Builder.store "out" (at 32) (fexp 2);
          Builder.if_ (iexp 2) [ Builder.store "out" (at 48) (Cast (Dtype.F32, iexp 2)) ]
        ];
      Builder.store "out" (Int 64) (Var "x")
    ]

(* Loops whose body is a block of rows, the shapes the compiled engine runs
   as one program per iteration, and their near misses. A row is a per-row
   init, then a MAC nest, a store nest or the vnni mul+reduce as loops
   (two scratch [Alloc]s, a product nest, the reduced element zeroed or
   left to the [Alloc]'s zero fill, a reduction nest and a fold of the
   reduced element into the row's sum), then a store of the sum, which may
   read the reduced element too. A scratch tensor may be an int one, or
   named like the parameter [b]; one may be read into a scalar that is
   halved, which an int load must keep an integer division. An int let
   or a loop with an empty body keeps the loop per element. Some indices
   leave their buffer at the last corner only. A loop over [p] may be a
   one-level thread loop, the serial loop it equals, which lowers with the
   row unless it assigns [acc], or the inner level of a two-level thread
   chain; those two stay thread chains. *)
let block_kernel rng =
  let size = Kgen.buf_size in
  let ext_i = Rng.int rng 5 and lo_i = Rng.int rng 2 and len = 1 + Rng.int rng 6 in
  (* [off + i * len + p]; at an edge the last corner is one past the end *)
  let span = (lo_i + ext_i) * len in
  let offset () =
    if Rng.bernoulli rng 0.1 then size - span + 1 else Rng.int rng (max 1 (size - span))
  in
  let open Expr.Infix in
  let index () = int (offset ()) + (v "i" * int len) + v "p" in
  (* an element per row *)
  let row () = int (Rng.int rng (Stdlib.( - ) size 8)) + v "i" in
  let t = if Rng.bernoulli rng 0.15 then "b" else "t" in
  let tdtype = if Rng.bernoulli rng 0.2 then Dtype.I32 else Dtype.F32 in
  let init =
    if Rng.bool rng then Builder.let_ "acc" (flt 0.0)
    else Builder.let_ "acc" (load "out" (row ()) * flt 0.5)
  in
  let loop_p body =
    match Rng.int rng 6 with
    | 0 -> Builder.par_for Axis.Thread_x "p" (int len) body
    | 1 ->
      (* drawn so, the inner extent is negative in thread [ty = 1]: the
         chain raises before any of its threads runs *)
      let ext =
        if Rng.bernoulli rng 0.3 then int len - (v "ty" * int (Stdlib.( + ) len 1)) else int len
      in
      Builder.par_for Axis.Thread_y "ty" (int (Stdlib.( + ) 1 (Rng.int rng 2)))
        [ Builder.par_for Axis.Thread_x "p" ext body ]
    | _ -> Builder.for_ "p" (int len) body
  in
  let scratch = Rng.bernoulli rng 0.34 in
  let middle =
    if scratch then
      [ Builder.alloc ~dtype:tdtype t Scope.Local len; Builder.alloc "u" Scope.Local 2;
        loop_p [ Builder.store t (v "p") ((load "a" (index ()) * flt 8.0) + load "out" (index ())) ] ]
      @ (if Rng.bool rng then [ Builder.store "u" (int 0) (flt 0.0) ] else [])
      @ [ loop_p [ Builder.store "u" (int 0) (load "u" (int 0) + load t (v "p")) ];
          Builder.assign "acc" (v "acc" + load "u" (int 0)) ]
    else if Rng.bool rng then
      [ loop_p [ Builder.assign "acc" (v "acc" + (load "a" (index ()) * load "b" (index ()))) ] ]
    else [ loop_p [ Builder.store "out" (index ()) (load "a" (index ()) * v "acc") ] ]
  in
  let halved =
    if Stdlib.( && ) scratch (Rng.bool rng) then
      [ Builder.let_ "x" (load t (int (Rng.int rng len)));
        Builder.store "out" (row ()) (v "x" / int 2) ]
    else []
  in
  let int_let = if Rng.bernoulli rng 0.15 then [ Builder.let_ "n" (v "i" * int 2) ] else [] in
  let epilogue =
    Builder.store "out" (row ())
      (if Stdlib.( && ) scratch (Rng.bool rng) then v "acc" + load "u" (int 0) else v "acc" * flt 0.5)
  in
  let empty = if Rng.bernoulli rng 0.1 then [ Builder.for_ "q" (int len) [] ] else [] in
  Kernel.make ~name:"block"
    ~params:[ Builder.buffer "a"; Builder.buffer "b"; Builder.buffer "out" ]
    [ Builder.for_ "i" ~lo:(int lo_i) (int ext_i)
        ((init :: int_let) @ middle @ empty @ halved @ [ epilogue ])
    ]

(* both engines, traced and untraced, on fresh copies of [args] *)
let engines_agree ~fuel k args =
  List.for_all
    (fun traced ->
      let a_tree = Tcommon.clone_args args in
      let a_comp = Tcommon.clone_args args in
      let r_tree = run_engine Interp.run_tree ~traced ~fuel k a_tree in
      let r_comp = run_engine Interp.run ~traced ~fuel k a_comp in
      compare r_tree r_comp = 0
      && compare (Tcommon.buffers a_tree) (Tcommon.buffers a_comp) = 0)
    [ true; false ]

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
      engines_agree ~fuel k args
      &&
      (* an affine-loop kernel, run to completion and with fuel that runs
         out part-way, most likely inside its innermost loop *)
      let ag = Rng.create ((seed * 11) + 3) in
      let k = affine_kernel ag in
      let args = Tcommon.make_args (Rng.create (seed + 5)) ~buf_size k [] in
      engines_agree ~fuel:200_000_000 k args
      && engines_agree ~fuel:(1 + Rng.int ag 60) k args
      &&
      (* a perfect nest, run to completion and with fuel that runs out
         part-way, most likely inside the nest *)
      let ng = Rng.create ((seed * 13) + 5) in
      let k = nest_kernel ng in
      let args = Tcommon.make_args (Rng.create (seed + 9)) ~buf_size k [] in
      engines_agree ~fuel:200_000_000 k args
      && engines_agree ~fuel:(1 + Rng.int ng 150) k args
      &&
      (* scratch tensors and barrier-free thread chains, run to completion
         and with fuel that runs out part-way *)
      let sg = Rng.create ((seed * 17) + 7) in
      let k = scratch_kernel sg in
      let args = Tcommon.make_args (Rng.create (seed + 11)) ~buf_size k [] in
      engines_agree ~fuel:200_000_000 k args
      && engines_agree ~fuel:(1 + Rng.int sg 120) k args
      &&
      (* scalar expressions, run to completion and with fuel that runs out
         part-way *)
      let eg = Rng.create ((seed * 19) + 9) in
      let k = scalar_kernel eg in
      (* [p] a float in half the seeds; the int buffer [b] holding
         fractions, which its loads truncate *)
      let args =
        List.map
          (fun (n, a) ->
            match a with
            | Interp.Scalar_int _ when seed mod 2 = 0 ->
              (n, Interp.Scalar_float (float_of_int (Rng.int_in eg (-8) 8) /. 4.0))
            | Interp.Buf t when not (Dtype.is_float t.Tensor.dtype) ->
              (n, Interp.Buf { t with Tensor.data = Array.map (fun x -> x /. 3.0) t.Tensor.data })
            | a -> (n, a))
          (Tcommon.make_args (Rng.create (seed + 13)) ~buf_size k [])
      in
      engines_agree ~fuel:200_000_000 k args
      && engines_agree ~fuel:(1 + Rng.int eg 60) k args
      &&
      (* a loop of rows, run to completion and with fuel that runs out
         part-way *)
      let bg = Rng.create ((seed * 23) + 11) in
      let k = block_kernel bg in
      let args = Tcommon.make_args (Rng.create (seed + 15)) ~buf_size k [] in
      engines_agree ~fuel:200_000_000 k args
      && engines_agree ~fuel:(1 + Rng.int bg 150) k args)

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
      ("fuel", mk "fuel" [ Builder.for_ "i" (int 1_000_000) [ Builder.let_ "x" (v "i") ] ]);
      (* loops the compiled engine lowers: the entry check must send them to
         the per-element path, which fails at the same element *)
      ( "oob_mac_last",
        mk "oob_mac_last"
          [ Builder.let_ "acc" (flt 0.0);
            Builder.for_ "p" (int 25)
              [ Builder.assign "acc"
                  (v "acc" + (load "out" (v "p") * load "out" (v "p" + int 1000)))
              ];
            Builder.store "out" (int 0) (v "acc")
          ] );
      ( "oob_store_last",
        mk "oob_store_last"
          [ Builder.for_ "p" (int 9)
              [ Builder.store "out" (int 1016 + v "p") (load "out" (v "p") * flt 2.0) ]
          ] );
      ( "fuel_lowered",
        mk "fuel_lowered"
          [ Builder.for_ "p" (int 5000)
              [ Builder.store "out" (int 0) (load "out" (int 0) + flt 1.0) ]
          ] );
      (* nests the compiled engine lowers whole: the index leaves the
         buffer at the box's last corner only; the statements overrun the
         fuel; an inner bound reads the outer counter *)
      ( "oob_nest_last_corner",
        mk "oob_nest_last_corner"
          [ Builder.for_ "i" (int 4)
              [ Builder.for_ "j" (int 4)
                  [ Builder.for_ "k" (int 8)
                      [ Builder.store "out"
                          (int 897 + (v "i" * int 32) + (v "j" * int 8) + v "k")
                          (load "out" (v "k") * flt 2.0)
                      ]
                  ]
              ]
          ] );
      ( "fuel_nest",
        mk "fuel_nest"
          [ Builder.let_ "acc" (flt 0.0);
            Builder.for_ "i" (int 20)
              [ Builder.for_ "j" (int 20)
                  [ Builder.for_ "k" (int 20)
                      [ Builder.assign "acc" (v "acc" + (load "out" (v "k") * load "out" (v "j")))
                      ]
                  ]
              ];
            Builder.store "out" (int 0) (v "acc")
          ] );
      ( "triangular_nest",
        mk "triangular_nest"
          [ Builder.for_ "i" (int 6)
              [ Builder.for_ "j" (v "i" + int 1)
                  [ Builder.store "out" (int 1020 + v "i" + v "j") (load "out" (v "j") + flt 1.0) ]
              ]
          ] )
    ]
  in
  List.iter
    (fun (name, k) ->
      List.iter
        (fun traced ->
          let args () = [ ("out", Interp.Buf (Tensor.create 1024)) ] in
          let err runner =
            match run_engine runner ~traced ~fuel:1000 k (args ()) with
            | Ok _ -> Alcotest.failf "%s: expected Runtime_error" name
            | Error m -> m
          in
          Alcotest.(check string)
            (Printf.sprintf "%s (traced %b): same error" name traced)
            (err Interp.run_tree) (err Interp.run))
        [ true; false ])
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
