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
          if n <= 0 then
            oneof
              [ map (fun i -> Expr.Int i) (int_range (-20) 20);
                oneofl [ Expr.Var "x"; Expr.Var "y" ]
              ]
          else
            frequency
              [ (1, map (fun i -> Expr.Int i) (int_range (-20) 20));
                (1, oneofl [ Expr.Var "x"; Expr.Var "y" ]);
                ( 3,
                  map3
                    (fun op a b -> Expr.Binop (op, a, b))
                    (oneofl
                       [ Expr.Add; Expr.Sub; Expr.Mul; Expr.Min; Expr.Max; Expr.Lt; Expr.Le ])
                    (self (n / 2)) (self (n / 2)) );
                (1, map (fun a -> Expr.Unop (Expr.Neg, a)) (self (n - 1)))
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
          Alcotest.test_case "simplify block" `Quick test_simplify_block
        ] );
      ( "validate",
        [ Alcotest.test_case "ok kernel" `Quick test_validate_ok;
          Alcotest.test_case "unbound names" `Quick test_validate_unbound;
          Alcotest.test_case "intrinsic arity" `Quick test_validate_intrinsic_arity;
          Alcotest.test_case "kernel helpers" `Quick test_kernel_helpers
        ] );
      ( "kernel",
        [ Alcotest.test_case "content keying" `Quick test_content_keying;
          Alcotest.test_case "signed zeros do not alias" `Quick test_signed_zero_keying
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_simplify_preserves_value; prop_simplify_idempotent; prop_subst_removes_var ]
      )
    ]
