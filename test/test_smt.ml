open Xpiler_ir
open Xpiler_smt


(* ---- solver ------------------------------------------------------------- *)

let test_solve_linear () =
  (* the Figure 5 loop-split constraint: i1*4 + i2 == 10, 0 <= i2 < 4 *)
  let open Expr.Infix in
  let problem : Solver.problem =
    { vars =
        [ ("i1", Solver.Range { lo = 0; hi = 16; stride = 1 });
          ("i2", Solver.Range { lo = 0; hi = 3; stride = 1 }) ];
      constraints = [ (v "i1" * int 4) + v "i2" = int 10 ]
    }
  in
  match Solver.solve problem with
  | Solver.Sat model, _ ->
    Alcotest.(check int) "i1" 2 (List.assoc "i1" model);
    Alcotest.(check int) "i2" 2 (List.assoc "i2" model)
  | _ -> Alcotest.fail "expected sat"

let test_solve_unsat () =
  let open Expr.Infix in
  let problem : Solver.problem =
    { vars = [ ("x", Solver.Range { lo = 0; hi = 10; stride = 1 }) ];
      constraints = [ v "x" > int 5; v "x" < int 3 ]
    }
  in
  match Solver.solve problem with
  | Solver.Unsat, _ -> ()
  | _ -> Alcotest.fail "expected unsat"

let test_solve_alignment () =
  let open Expr.Infix in
  let problem : Solver.problem =
    { vars = [ ("len", Solver.Enum [ 100; 128; 192; 2309; 2304 ]) ];
      constraints = [ v "len" % int 64 = int 0; v "len" > int 128 ]
    }
  in
  let models = Solver.solve_all problem in
  Alcotest.(check (list (list (pair string int)))) "aligned lengths"
    [ [ ("len", 192) ]; [ ("len", 2304) ] ]
    models

let test_solve_timeout () =
  let open Expr.Infix in
  let problem : Solver.problem =
    { vars =
        [ ("a", Solver.Range { lo = 0; hi = 10000; stride = 1 });
          ("b", Solver.Range { lo = 0; hi = 10000; stride = 1 }) ];
      constraints = [ v "a" * v "b" = int (-1) ]
    }
  in
  match Solver.solve ~max_steps:1000 problem with
  | Solver.Timeout, stats ->
    Alcotest.(check bool) "bounded" true (Stdlib.( <= ) stats.Solver.steps 1001)
  | Solver.Unsat, _ -> Alcotest.fail "should time out before proving unsat"
  | Solver.Sat _, _ -> Alcotest.fail "unsatisfiable"

let test_divisors () =
  Alcotest.(check (list int)) "divisors 12" [ 1; 2; 3; 4; 6; 12 ] (Solver.divisors 12);
  Alcotest.(check (list int)) "divisors 1" [ 1 ] (Solver.divisors 1)

(* the O(sqrt n) paired enumeration must agree with trial division, squares
   and primes included *)
let test_divisors_sqrt () =
  let naive n = List.filter (fun d -> n mod d = 0) (List.init n (fun i -> i + 1)) in
  List.iter
    (fun n ->
      Alcotest.(check (list int)) (Printf.sprintf "divisors %d" n) (naive n) (Solver.divisors n))
    [ 1; 12; 36; 97; 1024 ]

let test_forall () =
  let open Expr.Infix in
  (* forall i in [0,4): i*2 < 8 *)
  let f = Solver.forall_range "i" ~lo:0 ~hi:4 (v "i" * int 2 < int 8) in
  Alcotest.(check int) "valid" 1 (Expr.eval_int (fun _ -> 0) f);
  let g = Solver.forall_range "i" ~lo:0 ~hi:5 (v "i" * int 2 < int 8) in
  Alcotest.(check int) "invalid at i=4" 0 (Expr.eval_int (fun _ -> 0) g)

(* ---- solver memo ----------------------------------------------------------- *)

(* negative verdicts are sound memo entries: the key includes the step
   budget, so an Unsat or Timeout under one budget can never answer a query
   under another *)
let test_memo_unsat_and_timeout () =
  let open Expr.Infix in
  Memo.clear ();
  let hits0 = Memo.hits () in
  let unsat_p : Solver.problem =
    { vars = [ ("x", Solver.Range { lo = 0; hi = 50; stride = 1 }) ];
      constraints = [ v "x" > int 60 ]
    }
  in
  let o1 = Solver.solve unsat_p in
  let o2 = Solver.solve unsat_p in
  Alcotest.(check bool) "unsat memoized with its receipt" true (Stdlib.( = ) o1 o2);
  Alcotest.(check bool) "unsat is an unsat" true
    (match o1 with Solver.Unsat, _ -> true | _ -> false);
  Alcotest.(check int) "one hit" 1 (Stdlib.( - ) (Memo.hits ()) hits0);
  let timeout_p : Solver.problem =
    { vars =
        [ ("a", Solver.Range { lo = 0; hi = 10000; stride = 1 });
          ("b", Solver.Range { lo = 0; hi = 10000; stride = 1 }) ];
      constraints = [ v "a" * v "b" = int (-1) ]
    }
  in
  let t1 = Solver.solve ~max_steps:1000 timeout_p in
  let t2 = Solver.solve ~max_steps:1000 timeout_p in
  Alcotest.(check bool) "timeout memoized with its receipt" true (Stdlib.( = ) t1 t2);
  Alcotest.(check bool) "timeout is a timeout" true
    (match t1 with Solver.Timeout, _ -> true | _ -> false);
  let misses_before = Memo.misses () in
  let t3 = Solver.solve ~max_steps:5000 timeout_p in
  Alcotest.(check int) "a different budget is a fresh search, not a stale hit"
    (Stdlib.( + ) misses_before 1) (Memo.misses ());
  Alcotest.(check bool) "larger budget searches further" true
    (match t3 with _, s -> Stdlib.( > ) s.Solver.steps 1001)

let test_naive_engine_bypasses_memo () =
  Memo.clear ();
  let lookups () = Memo.hits () + Memo.misses () in
  let lookups0 = lookups () in
  Solver.with_engine Solver.Naive @@ fun () ->
  let open Expr.Infix in
  let p : Solver.problem =
    { vars = [ ("x", Solver.Range { lo = 0; hi = 8; stride = 1 }) ];
      constraints = [ v "x" > int 3 ]
    }
  in
  let o1 = Solver.solve p in
  let o2 = Solver.solve p in
  Alcotest.(check bool) "same result without the memo" true (Stdlib.( = ) o1 o2);
  Alcotest.(check int) "no lookups counted" lookups0 (lookups ());
  Alcotest.(check int) "nothing stored" 0 (Memo.size ())

(* ---- synthesis ------------------------------------------------------------- *)

let test_fill_holes_split_factor () =
  let r =
    Synth.fill_holes
      ~holes:[ ("?f", Solver.Enum (Solver.divisors 256)) ]
      ~sketch:Expr.Infix.(v "?f" * v "outer")
      ~examples:[ { env = [ ("outer", 4) ]; expected = 256 } ]
      ~side_constraints:Expr.Infix.[ v "?f" % int 64 = int 0 ]
      ()
  in
  match r.outcome with
  | Solver.Sat model -> Alcotest.(check int) "factor" 64 (List.assoc "?f" model)
  | _ -> Alcotest.fail "expected sat"

let test_fill_holes_offset () =
  (* recover the base offset of a staged window: idx - ?base = local index *)
  let r =
    Synth.fill_holes
      ~holes:[ ("?base", Solver.Range { lo = 0; hi = 1024; stride = 64 }) ]
      ~sketch:Expr.Infix.(v "idx" - v "?base")
      ~examples:
        [ { env = [ ("idx", 192) ]; expected = 0 }; { env = [ ("idx", 200) ]; expected = 8 } ]
      ()
  in
  match r.outcome with
  | Solver.Sat model -> Alcotest.(check int) "base" 192 (List.assoc "?base" model)
  | _ -> Alcotest.fail "expected sat"

let test_holes_of () =
  Alcotest.(check (list string)) "holes"
    [ "?a"; "?b" ]
    (Synth.holes_of Expr.Infix.(v "?a" + (v "x" * v "?b")))

let test_enumerate_affine () =
  let found, tried =
    Synth.enumerate_affine ~vars:[ "i"; "j" ] ~consts:[ 2; 3; 4 ]
      ~examples:
        [ { env = [ ("i", 0); ("j", 0) ]; expected = 0 };
          { env = [ ("i", 1); ("j", 0) ]; expected = 4 };
          { env = [ ("i", 2); ("j", 3) ]; expected = 11 } ]
      ()
  in
  (match found with
  | Some e ->
    List.iter
      (fun (iv, jv, want) ->
        let env = function "i" -> iv | "j" -> jv | _ -> 0 in
        Alcotest.(check int) "consistent" want (Expr.eval_int env e))
      [ (0, 0, 0); (1, 0, 4); (2, 3, 11); (5, 1, 21) ]
  | None -> Alcotest.fail "no expression found");
  Alcotest.(check bool) "sketch search is much larger than a detail query" true (tried > 50)

let test_apply_model () =
  let sketch = Expr.Infix.(v "?f" * v "x") in
  let filled = Synth.apply_model [ ("?f", 8) ] sketch in
  Alcotest.(check int) "applied" 24 (Expr.eval_int (fun _ -> 3) filled)

(* ---- properties --------------------------------------------------------------- *)

let prop_sat_models_satisfy =
  QCheck.Test.make ~name:"returned models satisfy all constraints" ~count:200
    QCheck.(triple (int_range 1 30) (int_range 0 29) (int_range 1 10))
    (fun (hi, target, m) ->
      let open Expr.Infix in
      let problem : Solver.problem =
        { vars =
            [ ("x", Solver.Range { lo = 0; hi; stride = 1 });
              ("y", Solver.Enum [ 0; 1; 2; 3 ]) ];
          constraints = [ v "x" + v "y" = int target; v "x" % int m = int 0 ]
        }
      in
      let ok_model x y = Stdlib.( && ) (Stdlib.( = ) (Stdlib.( + ) x y) target) (Stdlib.( = ) (x mod m) 0) in
      match Solver.solve problem with
      | Solver.Sat model, _ ->
        let env x = List.assoc x model in
        ok_model (env "x") (env "y")
      | (Solver.Unsat | Solver.Timeout), _ ->
        (* verify by brute force there really is no model *)
        not
          (List.exists
             (fun x -> List.exists (fun y -> ok_model x y) [ 0; 1; 2; 3 ])
             (List.init (Stdlib.( + ) hi 1) Fun.id)))

let prop_solve_all_distinct =
  QCheck.Test.make ~name:"solve_all returns distinct models" ~count:100
    QCheck.(int_range 2 40)
    (fun n ->
      let open Expr.Infix in
      let problem : Solver.problem =
        { vars = [ ("x", Solver.Range { lo = 0; hi = n; stride = 1 }) ];
          constraints = [ v "x" % int 2 = int 0 ]
        }
      in
      let ms = Solver.solve_all problem in
      Stdlib.( && )
        (Stdlib.( = ) (List.length (List.sort_uniq compare ms)) (List.length ms))
        (Stdlib.( = ) (List.length ms) (Stdlib.( + ) (Stdlib.( / ) n 2) 1)))

(* differential fuzz: the incremental watched-constraint engine (plus memo,
   which may serve repeated problems) must agree with the retained naive
   engine on outcome, model set and model order *)
let prop_incremental_matches_naive =
  QCheck.Test.make ~name:"incremental engine matches naive engine" ~count:300
    QCheck.(quad (int_range 0 25) (int_range 1 4) (int_range 0 30) (int_range 1 6))
    (fun (hi, stride, target, m) ->
      let problem : Solver.problem =
        let open Expr.Infix in
        { vars =
            [ ("x", Solver.Range { lo = 0; hi; stride });
              ("y", Solver.Enum [ 0; 1; 3; 7; target ]);
              ("z", Solver.Range { lo = -2; hi = 3; stride = 1 }) ];
          constraints =
            [ v "x" + v "y" + v "z" = int target;
              v "x" % int m = int 0;
              v "y" > v "z" - int 8 ]
        }
      in
      let inc_models = Solver.solve_all ~limit:64 problem in
      let naive_models, _ = Solver.solve_all_naive ~limit:64 problem in
      let inc_outcome, _ = Solver.solve problem in
      let naive_outcome, _ = Solver.solve_naive problem in
      Stdlib.( && )
        (Stdlib.( = ) inc_models naive_models)
        (Stdlib.( = ) inc_outcome naive_outcome))

let () =
  Alcotest.run "smt"
    [ ( "solver",
        [ Alcotest.test_case "figure-5 split constraint" `Quick test_solve_linear;
          Alcotest.test_case "unsat" `Quick test_solve_unsat;
          Alcotest.test_case "alignment filter" `Quick test_solve_alignment;
          Alcotest.test_case "timeout" `Quick test_solve_timeout;
          Alcotest.test_case "divisors" `Quick test_divisors;
          Alcotest.test_case "divisors O(sqrt n)" `Quick test_divisors_sqrt;
          Alcotest.test_case "bounded forall" `Quick test_forall
        ] );
      ( "memo",
        [ Alcotest.test_case "unsat and timeout memoized" `Quick test_memo_unsat_and_timeout;
          Alcotest.test_case "naive engine bypasses the memo" `Quick
            test_naive_engine_bypasses_memo
        ] );
      ( "synthesis",
        [ Alcotest.test_case "split factor hole" `Quick test_fill_holes_split_factor;
          Alcotest.test_case "window offset hole" `Quick test_fill_holes_offset;
          Alcotest.test_case "holes_of" `Quick test_holes_of;
          Alcotest.test_case "affine enumeration" `Quick test_enumerate_affine;
          Alcotest.test_case "apply model" `Quick test_apply_model
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sat_models_satisfy; prop_solve_all_distinct; prop_incremental_matches_naive ]
      )
    ]
