(* Neural-symbolic repair in action: the Figure 2(c) scenario.

   The "LLM" tensorizes a kernel but gets the intrinsic length parameter
   wrong (1024 instead of the staged window size). The unit test catches it,
   bug localization narrows the fault to the parameter, and SMT-based code
   repairing recovers the correct constant from the program's own context
   (allocation sizes, copy lengths) under the platform's alignment
   constraints.

   Run with: dune exec examples/repair_demo.exe *)

open Xpiler_ir
open Xpiler_machine
open Xpiler_ops
open Xpiler_repair

let () =
  let op = Registry.find_exn "add" in
  let shape = [ ("n", 256) ] in
  let good = Idiom.source Platform.Bang op shape in
  print_endline "--- correct BANG C kernel ---";
  print_string (Idiom.source_text Platform.Bang op shape);

  (* break it the way Figure 2(c) shows: a plausible-but-wrong length *)
  let broken =
    Kernel.map_body
      (Stmt.map_block (fun s ->
           match s with
           | Stmt.Intrinsic ({ op = Intrin.Vec_add; params = _ :: rest; _ } as i) ->
             Some (Stmt.Intrinsic { i with params = Expr.Int 1024 :: rest })
           | s -> Some s))
      good
  in
  print_endline "\n--- after the (simulated) LLM's mistake: vec_add length 1024 ---";
  (match Unit_test.check op shape broken with
  | Unit_test.Pass -> print_endline "unit test: PASS (unexpected!)"
  | Unit_test.Fail m -> Printf.printf "unit test: FAIL (%s)\n" m);

  (* Algorithm 2: localize *)
  let report = Localize.localize ~op ~shape broken in
  Printf.printf "\nbug localization: failing buffers [%s], %d candidate sites\n"
    (String.concat "; " report.Localize.failing_buffers)
    (List.length report.Localize.sites);
  List.iter
    (fun site -> Printf.printf "  site: %s\n" (Site.to_string site))
    report.Localize.sites;

  (* Algorithm 3: SMT-based repair *)
  match Repairer.repair ~platform:Platform.bang ~op ~shape broken with
  | Repairer.Repaired { kernel; tests_run; site } ->
    Printf.printf "\nrepaired at %s after %d unit-test runs\n" site tests_run;
    (match Unit_test.check op shape kernel with
    | Unit_test.Pass -> print_endline "unit test: PASS";
    | Unit_test.Fail m -> Printf.printf "unit test: still failing (%s)\n" m);
    print_endline "\n--- repaired kernel ---";
    print_string (Xpiler_lang.Codegen.emit Xpiler_lang.Dialect.bang kernel)
  | Repairer.Gave_up { reason; tests_run } ->
    Printf.printf "\nrepair gave up after %d tests: %s\n" tests_run reason
