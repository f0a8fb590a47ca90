open Xpiler_ir

let expr = Alcotest.testable Expr.pp Expr.equal

let test_simplify_constants () =
  let open Expr.Infix in
  Alcotest.check expr "2+3" (Expr.Int 5) (Expr.simplify (int 2 + int 3));
  Alcotest.check expr "x+0" (v "x") (Expr.simplify (v "x" + int 0));
  Alcotest.check expr "x*1" (v "x") (Expr.simplify (v "x" * int 1));
  Alcotest.check expr "x*0" (Expr.Int 0) (Expr.simplify (v "x" * int 0));
  Alcotest.check expr "(x+2)+3" (v "x" + int 5) (Expr.simplify (v "x" + int 2 + int 3));
  Alcotest.check expr "x-x" (Expr.Int 0) (Expr.simplify (v "x" - v "x"))

let test_simplify_select () =
  let open Expr.Infix in
  Alcotest.check expr "select true" (v "a")
    (Expr.simplify (Expr.Select (int 1, v "a", v "b")));
  Alcotest.check expr "select false" (v "b")
    (Expr.simplify (Expr.Select (int 0, v "a", v "b")))

let test_eval_int () =
  let open Expr.Infix in
  let env = function "n" -> 10 | "i" -> 3 | x -> failwith x in
  Alcotest.(check int) "affine" 43 (Expr.eval_int env ((v "n" * int 4) + v "i"));
  Alcotest.(check int) "div" 3 (Expr.eval_int env (v "n" / int 3));
  Alcotest.(check int) "mod" 1 (Expr.eval_int env (v "n" % int 3));
  Alcotest.(check int) "cmp" 1 (Expr.eval_int env (v "i" < v "n"))

let test_free_vars () =
  let open Expr.Infix in
  let e = (v "a" * v "b") + load "buf" (v "a" + v "c") in
  Alcotest.(check (list string)) "vars" [ "a"; "b"; "c" ] (Expr.free_vars e);
  Alcotest.(check (list string)) "bufs" [ "buf" ] (Expr.buffers_read e)

let test_subst () =
  let open Expr.Infix in
  let e = v "i" + (v "j" * v "i") in
  let e' = Expr.subst_var "i" (int 7) e in
  Alcotest.check expr "subst" (int 7 + (v "j" * int 7)) e'

let test_stmt_buffers () =
  let open Expr.Infix in
  let body =
    [ Builder.alloc "tmp" Scope.Shared 64;
      Builder.for_ "i" (int 64)
        [ Builder.store "tmp" (v "i") (load "a" (v "i"));
          Builder.store "out" (v "i") (load "tmp" (v "i") + load "b" (v "i"))
        ]
    ]
  in
  Alcotest.(check (list string)) "written" [ "tmp"; "out" ] (Stmt.buffers_written body);
  Alcotest.(check (list string)) "read" [ "a"; "tmp"; "b" ] (Stmt.buffers_read body);
  Alcotest.(check int) "depth" 1 (Stmt.max_loop_depth body)

let test_stmt_subst_shadowing () =
  let open Expr.Infix in
  let body =
    [ Builder.store "o" (v "i") (int 1);
      Builder.for_ "i" (int 4) [ Builder.store "o" (v "i") (int 2) ]
    ]
  in
  let body' = Stmt.subst_var "i" (int 9) body in
  match body' with
  | [ Stmt.Store { index = Expr.Int 9; _ }; Stmt.For { body = [ Stmt.Store s ]; _ } ] ->
    Alcotest.check expr "inner untouched" (v "i") s.index
  | _ -> Alcotest.fail "unexpected shape"

let test_rename_buffer () =
  let open Expr.Infix in
  let body = [ Builder.store "a" (int 0) (load "a" (int 1)) ] in
  match Stmt.rename_buffer ~old_name:"a" ~new_name:"z" body with
  | [ Stmt.Store { buf = "z"; value = Expr.Load ("z", _); _ } ] -> ()
  | _ -> Alcotest.fail "rename failed"

let test_simplify_block () =
  let open Expr.Infix in
  let body =
    [ Builder.if_ (int 0) [ Builder.store "a" (int 0) (int 1) ]
        ~else_:[ Builder.store "a" (int 1) (int 2) ];
      Builder.for_ "i" (int 0) [ Builder.store "a" (int 2) (int 3) ]
    ]
  in
  match Stmt.simplify body with
  | [ Stmt.Store { index = Expr.Int 1; _ } ] -> ()
  | other -> Alcotest.fail ("unexpected: " ^ Stmt.to_string other)

let test_validate_ok () =
  let open Expr.Infix in
  let k =
    Kernel.make ~name:"copy"
      ~params:[ Builder.buffer "src"; Builder.buffer "dst"; Builder.scalar "n" ]
      [ Builder.for_ "i" (v "n") [ Builder.store "dst" (v "i") (load "src" (v "i")) ] ]
  in
  match Validate.check k with
  | Ok () -> ()
  | Error es -> Alcotest.fail (Validate.errors_to_string es)

let test_validate_unbound () =
  let open Expr.Infix in
  let at_least_two es = Stdlib.( >= ) (List.length es) 2 in
  let k =
    Kernel.make ~name:"bad" ~params:[ Builder.buffer "dst" ]
      [ Builder.store "dst" (v "i") (load "ghost" (int 0)) ]
  in
  match Validate.check k with
  | Ok () -> Alcotest.fail "expected errors"
  | Error es -> Alcotest.(check bool) "two errors" true (at_least_two es)

(* the exact reports, in order: each expression reports its unbound
   variables, then its unbound buffers, each name once *)
let test_validate_error_parity () =
  let open Expr.Infix in
  let errors body =
    let k =
      Kernel.make ~name:"bad" ~params:[ Builder.buffer "dst"; Builder.buffer "src" ] body
    in
    match Validate.check k with
    | Ok () -> []
    | Error es -> List.map Validate.error_to_string es
  in
  Alcotest.(check (list string)) "same variable twice" [ "let t: unbound variable x" ]
    (errors [ Builder.let_ "t" (v "x" * v "x") ]);
  Alcotest.(check (list string)) "unbound buffer in a load index"
    [ "store dst: unbound buffer ghost" ]
    (errors
       [ Builder.for_ "i" (int 4)
           [ Builder.store "dst" (v "i")
               (load "src" (load "ghost" (v "i") + load "ghost" (int 0)))
           ]
       ]);
  Alcotest.(check (list string)) "store index and value"
    [ "store dst: unbound variable y"; "store dst: unbound variable z";
      "store dst: unbound variable y"; "store dst: unbound buffer g1" ]
    (errors
       [ Builder.store "dst" (v "y" + v "z" + v "y") (load "g1" (v "y") + load "g1" (int 1)) ])

let test_validate_intrinsic_arity () =
  let k =
    Kernel.make ~name:"bad" ~params:[ Builder.buffer "a"; Builder.buffer "b" ]
      [ Builder.intrin Intrin.Vec_add ~dst:("a", Expr.Int 0)
          ~srcs:[ ("b", Expr.Int 0) ]
          [ Expr.Int 64 ]
      ]
  in
  match Validate.check k with
  | Ok () -> Alcotest.fail "expected arity error"
  | Error _ -> ()

let test_kernel_helpers () =
  let k =
    Kernel.make ~name:"k"
      ~params:[ Builder.buffer "a"; Builder.scalar "n" ]
      ~launch:[ (Axis.Block_x, 4); (Axis.Thread_x, 32) ]
      []
  in
  Alcotest.(check int) "parallelism" 128 (Kernel.total_parallelism k);
  Alcotest.(check (option int)) "extent" (Some 4) (Kernel.axis_extent k Axis.Block_x);
  Alcotest.(check int) "buffers" 1 (List.length (Kernel.buffer_params k))

(* the two properties the structural memo keys rely on: structurally equal
   kernels are [equal] with one hash, distinct kernels are not [equal] *)
let test_content_keying () =
  let kernel_of_seed seed = Test_support.Kgen.kernel (Xpiler_util.Rng.create seed) in
  let k1 = kernel_of_seed 77 and k2 = kernel_of_seed 77 and k3 = kernel_of_seed 78 in
  Alcotest.(check bool) "fresh structurally equal copies" true (k1 != k2 && Kernel.equal k1 k2);
  Alcotest.(check int) "equal kernels, equal hash" (Kernel.hash k1) (Kernel.hash k2);
  Alcotest.(check bool) "distinct kernels" false (Kernel.equal k1 k3)

(* 0.0 and -0.0 compare equal as floats but are different literals:
   [1.0 / -0.0] is -inf. Keying a memo on an equality that aliased them
   would hand one kernel the other's results. *)
let test_signed_zero_keying () =
  let open Expr.Infix in
  let k z =
    Kernel.make ~name:"recip" ~params:[ Builder.buffer "out" ]
      [ Builder.store "out" (int 0) (flt 1.0 / flt z) ]
  in
  let pos = k 0.0 and neg = k (-0.0) in
  Alcotest.(check bool) "0.0 and -0.0 kernels differ" false (Kernel.equal pos neg);
  let run k =
    let out = Xpiler_machine.Tensor.create 1 in
    ignore (Xpiler_machine.Interp.run k [ ("out", Xpiler_machine.Interp.Buf out) ]);
    Xpiler_machine.Tensor.get out 0
  in
  Alcotest.(check (float 0.0)) "1 / 0.0" Float.infinity (run pos);
  Alcotest.(check (float 0.0)) "1 / -0.0" Float.neg_infinity (run neg)

(* property tests *)

let gen_expr =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          (* 0 and 1 often, for the logical identities *)
          let literal =
            frequency
              [ (3, map (fun i -> Expr.Int i) (int_range (-20) 20));
                (1, oneofl [ Expr.Int 0; Expr.Int 1 ])
              ]
          in
          let nonzero = map (fun i -> Expr.Int (if i >= 0 then i + 1 else i)) (int_range (-6) 5) in
          if n <= 0 then oneof [ literal; oneofl [ Expr.Var "x"; Expr.Var "y" ] ]
          else
            frequency
              [ (1, literal);
                (1, oneofl [ Expr.Var "x"; Expr.Var "y" ]);
                ( 4,
                  map3
                    (fun op a b -> Expr.Binop (op, a, b))
                    (oneofl
                       [ Expr.Add; Expr.Sub; Expr.Mul; Expr.Min; Expr.Max; Expr.Lt; Expr.Le;
                         Expr.And; Expr.Or ])
                    (self (n / 2)) (self (n / 2)) );
                ( 1,
                  map3
                    (fun op a b -> Expr.Binop (op, a, b))
                    (oneofl [ Expr.Div; Expr.Mod ])
                    (self (n - 1)) nonzero );
                ( 1,
                  map2
                    (fun op a -> Expr.Unop (op, a))
                    (oneofl [ Expr.Neg; Expr.Not ])
                    (self (n - 1)) )
              ])
        n)

let arb_expr = QCheck.make ~print:Expr.to_string gen_expr

let prop_simplify_preserves_value =
  QCheck.Test.make ~name:"simplify preserves integer value" ~count:500 arb_expr (fun e ->
      let env = function "x" -> 5 | "y" -> -3 | _ -> 0 in
      Expr.eval_int env e = Expr.eval_int env (Expr.simplify e))

let prop_simplify_idempotent =
  QCheck.Test.make ~name:"simplify is idempotent" ~count:500 arb_expr (fun e ->
      let s = Expr.simplify e in
      Expr.equal s (Expr.simplify s))

let prop_subst_removes_var =
  QCheck.Test.make ~name:"subst removes the variable" ~count:500 arb_expr (fun e ->
      not (Expr.contains_var "x" (Expr.subst_var "x" (Expr.Int 1) e)))

(* [Expr.map] keeps an unchanged subtree shared, so simplifying what is
   already simple builds no node and returns its input *)
let prop_simplify_shares =
  QCheck.Test.make ~name:"simplify and map keep unchanged trees shared" ~count:500 arb_expr
    (fun e ->
      let s = Expr.simplify e in
      Expr.simplify s == s && Expr.map (fun _ -> None) e == e)

(* ---- Stmt.simplify against the whole-subtree reference --------------------
   [Stmt.map_exprs] is node-local, so [Stmt.simplify] simplifies each
   expression once; [Naive.stmt_simplify] simplifies a statement's whole
   subtree at every level. Both must give the same block. [loosen] undoes
   simplification at every depth (foldable index terms, constant guards,
   empty loops), so the structural rules have work to do. *)

let rec loosen rng block =
  let open Expr in
  let module Rng = Xpiler_util.Rng in
  List.concat_map
    (fun stmt ->
      let pad e = if Rng.bool rng then Binop (Add, e, Binop (Sub, Int 3, Int 3)) else e in
      let stmt =
        match Stmt.map_exprs pad stmt with
        | Stmt.For r -> Stmt.For { r with body = loosen rng r.body }
        | Stmt.If r -> Stmt.If { r with then_ = loosen rng r.then_; else_ = loosen rng r.else_ }
        | s -> s
      in
      match Rng.int rng 4 with
      | 0 -> [ Stmt.If { cond = Binop (Lt, Int 0, Int 1); then_ = [ stmt ]; else_ = [] } ]
      | 1 ->
        [ Stmt.If { cond = Binop (Sub, Int 2, Int 2); then_ = [ Stmt.Sync ]; else_ = [ stmt ] } ]
      | 2 ->
        [ Stmt.For
            { var = "dead"; lo = Int 0; extent = Binop (Sub, Int 1, Int 1); kind = Stmt.Serial;
              body = [ stmt ] };
          stmt
        ]
      | _ -> [ stmt ])
    block

let simplify_agrees block =
  let fast = Stmt.simplify block and naive = Test_support.Naive.stmt_simplify block in
  Stmt.equal_block fast naive
  || Alcotest.failf "simplify disagrees on\n%s--- node-local ---\n%s--- whole-subtree ---\n%s"
       (Stmt.to_string block) (Stmt.to_string fast) (Stmt.to_string naive)

let prop_simplify_matches_naive =
  QCheck.Test.make ~name:"Stmt.simplify = whole-subtree simplify" ~count:300
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let rng = Xpiler_util.Rng.create seed in
      let body = (Test_support.Kgen.kernel rng).Kernel.body in
      simplify_agrees body && simplify_agrees (loosen rng body))

(* The statement rewrites share the same way: a rewrite returns a
   statement or a block physically exactly when it is structurally
   unchanged, at every depth. [b'] is a rewrite of [b] that keeps the
   block shape (it replaces statements, never drops or splices them). *)
let rec shared_where_unchanged b b' =
  Bool.equal (b == b') (Stmt.equal_block b b')
  && List.length b = List.length b'
  && List.for_all2
       (fun s s' ->
         Bool.equal (s == s') (Stmt.equal s s')
         &&
         match (s, s') with
         | Stmt.For r, Stmt.For r' -> shared_where_unchanged r.body r'.body
         | Stmt.If r, Stmt.If r' ->
           shared_where_unchanged r.then_ r'.then_ && shared_where_unchanged r.else_ r'.else_
         | _ -> true)
       b b'

let prop_stmt_rewrites_share =
  QCheck.Test.make ~name:"statement rewrites keep unchanged trees shared" ~count:300
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let rng = Xpiler_util.Rng.create seed in
      let body = (Test_support.Kgen.kernel rng).Kernel.body in
      let simple = Stmt.simplify body in
      let loose = loosen rng body in
      let loop_var = match Stmt.loop_vars body with x :: _ -> x | [] -> "absent" in
      let tail_var = match List.rev (Stmt.loop_vars body) with x :: _ -> x | [] -> "absent" in
      Stmt.simplify simple == simple
      && Bool.equal (Stmt.simplify loose == loose) (Stmt.equal_block (Stmt.simplify loose) loose)
      && Stmt.map_block (fun _ -> None) body == body
      && Stmt.subst_var "absent" (Expr.Int 1) body == body
      && Stmt.rename_buffer ~old_name:"absent" ~new_name:"z" body == body
      && shared_where_unchanged body (Stmt.subst_var loop_var (Expr.Int 1) body)
      && shared_where_unchanged body (Stmt.subst_var tail_var (Expr.Int 1) body)
      && shared_where_unchanged body (Stmt.rename_buffer ~old_name:"b" ~new_name:"z" body)
      && shared_where_unchanged body
           (Stmt.map_block
              (function Stmt.If r -> Some (Stmt.If { r with cond = Expr.Int 1 }) | s -> Some s)
              body))

(* The rewrites every tuner candidate pays return their argument and
   allocate nothing when they change nothing, on every golden source (each
   operator on each platform, first shape): [Stmt.simplify] of a simplified
   body, [Stmt.subst_var] of a name not in the kernel, an identity
   [Stmt.map_block] and [Stmt.rename_buffer] of an absent buffer. Renaming
   a real buffer and substituting a real loop variable rebuild only what
   they change. *)
let rec run_all rewrite = function
  | [] -> ()
  | b :: rest ->
    ignore (Sys.opaque_identity (rewrite b));
    run_all rewrite rest

let test_noop_rewrites_allocate_nothing () =
  let open Xpiler_ops in
  let module Platform = Xpiler_machine.Platform in
  let bodies =
    List.concat_map
      (fun (op : Opdef.t) ->
        List.map
          (fun (p : Platform.t) ->
            let raw = (Idiom.source p.Platform.id op (List.hd op.Opdef.shapes)).Kernel.body in
            (raw, Stmt.simplify raw))
          Platform.all)
      Registry.all
  in
  Alcotest.(check int) "golden sources" 84 (List.length bodies);
  let rewrites =
    [ ("simplify", fun (_, simple) -> Stmt.simplify simple == simple);
      ("subst_var", fun (raw, _) -> Stmt.subst_var "absent" (Expr.Int 0) raw == raw);
      ("map_block", fun (raw, _) -> Stmt.map_block (fun _ -> None) raw == raw);
      ( "rename_buffer",
        fun (raw, _) -> Stmt.rename_buffer ~old_name:"absent" ~new_name:"z" raw == raw )
    ]
  in
  List.iter
    (fun (name, rewrite) ->
      List.iter
        (fun ((raw, _) as b) ->
          if not (rewrite b) then Alcotest.failf "%s copied\n%s" name (Stmt.to_string raw))
        bodies;
      let before = Gc.minor_words () in
      run_all rewrite bodies;
      let words = Gc.minor_words () -. before in
      Alcotest.(check (float 0.0)) (name ^ ": minor words over the golden sources") 0.0 words)
    rewrites;
  List.iter
    (fun (raw, _) ->
      let renamed =
        List.map
          (fun b -> Stmt.rename_buffer ~old_name:b ~new_name:"z" raw)
          (Stmt.buffers_written raw @ Stmt.buffers_read raw)
      in
      let substituted =
        List.map (fun x -> Stmt.subst_var x (Expr.Int 1) raw) (Stmt.loop_vars raw)
      in
      List.iter
        (fun raw' ->
          if not (shared_where_unchanged raw raw') then
            Alcotest.failf "a rewrite copied an unchanged statement of\n%s" (Stmt.to_string raw))
        (renamed @ substituted))
    bodies

(* [Stmt.map_block] calls back in post-order, left to right: a loop's body
   and an [If]'s then branch, then its else branch, before the statement
   itself, a block's head before its tail. [Rewrite.rewrite_nth] numbers
   its matches in this order. *)
let test_map_block_order () =
  let open Expr.Infix in
  let mark n = Stmt.Annot { key = n; value = "" } in
  let block =
    [ mark "a";
      Builder.for_ "i" (int 2)
        [ mark "b";
          Builder.if_ (v "i" < int 1)
            [ mark "c"; Builder.for_ "j" (int 2) [ mark "d" ] ]
            ~else_:[ mark "e"; mark "f" ];
          mark "g"
        ];
      Builder.if_ (v "n" < int 1) [ mark "h" ] ~else_:[ mark "k" ];
      mark "l"
    ]
  in
  let seen = ref [] in
  let name = function
    | Stmt.Annot { key; _ } -> key
    | Stmt.For { var; _ } -> "for " ^ var
    | Stmt.If { cond; _ } -> "if " ^ Expr.to_string cond
    | s -> Stmt.to_string [ s ]
  in
  let result =
    Stmt.map_block
      (fun s ->
        seen := name s :: !seen;
        None)
      block
  in
  Alcotest.(check (list string)) "post-order, left to right"
    [ "a"; "b"; "c"; "d"; "for j"; "e"; "f"; "if i < 1"; "g"; "for i"; "h"; "k"; "if n < 1"; "l" ]
    (List.rev !seen);
  Alcotest.(check bool) "unchanged block shared" true (result == block)

(* every golden source, and every tuning action on it for all four
   platforms, as is and loosened *)
let test_simplify_goldens () =
  let open Xpiler_ops in
  let open Xpiler_machine in
  let rng = Xpiler_util.Rng.create 20250706 in
  let applied = ref 0 in
  List.iter
    (fun (op : Opdef.t) ->
      let shape = List.hd op.Opdef.shapes in
      let buffer_sizes =
        List.map (fun (b : Opdef.buffer_spec) -> (b.buf_name, b.size shape)) op.Opdef.buffers
      in
      List.iter
        (fun (src : Platform.t) ->
          let k = Idiom.source src.Platform.id op shape in
          List.iter
            (fun (p : Platform.t) ->
              List.iter
                (fun spec ->
                  incr applied;
                  match Xpiler_passes.Pass.apply ~platform:p spec k with
                  | Ok k' ->
                    ignore (simplify_agrees k'.Kernel.body);
                    ignore (simplify_agrees (loosen rng k'.Kernel.body))
                  | Error _ -> ())
                (Xpiler_tuning.Actions.enumerate ~buffer_sizes p k))
            Platform.all;
          ignore (simplify_agrees (loosen rng k.Kernel.body)))
        Platform.all)
    Registry.all;
  Alcotest.(check bool) "actions applied" true (!applied > 1000)

let () =
  Alcotest.run "ir"
    [ ( "expr",
        [ Alcotest.test_case "simplify constants" `Quick test_simplify_constants;
          Alcotest.test_case "simplify select" `Quick test_simplify_select;
          Alcotest.test_case "eval int" `Quick test_eval_int;
          Alcotest.test_case "free vars" `Quick test_free_vars;
          Alcotest.test_case "subst" `Quick test_subst
        ] );
      ( "stmt",
        [ Alcotest.test_case "buffers" `Quick test_stmt_buffers;
          Alcotest.test_case "subst shadowing" `Quick test_stmt_subst_shadowing;
          Alcotest.test_case "rename buffer" `Quick test_rename_buffer;
          Alcotest.test_case "simplify block" `Quick test_simplify_block;
          Alcotest.test_case "simplify goldens = whole-subtree" `Quick test_simplify_goldens;
          Alcotest.test_case "no-op rewrites allocate nothing" `Quick
            test_noop_rewrites_allocate_nothing;
          Alcotest.test_case "map_block callback order" `Quick test_map_block_order
        ] );
      ( "validate",
        [ Alcotest.test_case "ok kernel" `Quick test_validate_ok;
          Alcotest.test_case "unbound names" `Quick test_validate_unbound;
          Alcotest.test_case "error parity" `Quick test_validate_error_parity;
          Alcotest.test_case "intrinsic arity" `Quick test_validate_intrinsic_arity;
          Alcotest.test_case "kernel helpers" `Quick test_kernel_helpers
        ] );
      ( "kernel",
        [ Alcotest.test_case "content keying" `Quick test_content_keying;
          Alcotest.test_case "signed zeros do not alias" `Quick test_signed_zero_keying
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_simplify_preserves_value; prop_simplify_idempotent; prop_subst_removes_var;
            prop_simplify_shares; prop_simplify_matches_naive; prop_stmt_rewrites_share ]
      )
    ]
