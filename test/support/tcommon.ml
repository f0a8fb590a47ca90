(* Shared helpers for the test suites: run two kernels on identical random
   inputs and compare every buffer; throwaway operators for the unit-test
   oracle, and its reference-run counter. *)

open Xpiler_ir
open Xpiler_machine

let make_args rng ?(buf_size = fun _ -> 1024) (k : Kernel.t) shapes =
  List.map
    (fun (p : Kernel.param) ->
      if p.is_buffer then
        (p.name, Interp.Buf (Tensor.random rng ~dtype:p.dtype (buf_size p.name)))
      else
        match List.assoc_opt p.name shapes with
        | Some v -> (p.name, Interp.Scalar_int v)
        | None -> (p.name, Interp.Scalar_int 8))
    k.Kernel.params

let clone_args args =
  List.map
    (fun (n, a) ->
      match a with
      | Interp.Buf t -> (n, Interp.Buf (Tensor.copy t))
      | s -> (n, s))
    args

let buffers args =
  List.filter_map (fun (n, a) -> match a with Interp.Buf t -> Some (n, t) | _ -> None) args

(* Run both kernels on identical inputs; return the first buffer where the
   results diverge, if any. Raises if either execution raises. *)
let divergence ?buf_size ?(seed = 1234) ?(shapes = []) k1 k2 =
  let rng = Xpiler_util.Rng.create seed in
  let args1 = make_args rng ?buf_size k1 shapes in
  let args2 = clone_args args1 in
  let _ = Interp.run k1 args1 in
  let _ = Interp.run k2 args2 in
  List.find_opt
    (fun ((n, t1) : string * Tensor.t) ->
      match List.assoc_opt n (buffers args2) with
      | Some t2 -> not (Tensor.allclose t1 t2)
      | None -> true)
    (buffers args1)
  |> Option.map fst

let check_equivalent ?buf_size ?seed ?shapes msg k1 k2 =
  match divergence ?buf_size ?seed ?shapes k1 k2 with
  | None -> ()
  | Some buf ->
    Alcotest.fail
      (Printf.sprintf "%s: buffer %s diverged\n--- before ---\n%s\n--- after ---\n%s" msg buf
         (Kernel.to_string k1) (Kernel.to_string k2))

let expect_ok = function
  | Ok v -> v
  | Error m -> Alcotest.fail ("expected Ok, got Error: " ^ m)

let expect_error msg = function
  | Ok _ -> Alcotest.fail ("expected Error: " ^ msg)
  | Error _ -> ()

(* a throwaway elementwise operator over [n] floats whose serial kernel is
   [body]: fresh per call, so its reference entries are its own *)
let throwaway_op name body : Xpiler_ops.Opdef.t =
  let open Expr.Infix in
  let n = 64 in
  { name;
    cls = Xpiler_ops.Opdef.Elementwise;
    shapes = [ [ ("n", n) ] ];
    buffers =
      [ { buf_name = "inp"; dtype = Dtype.F32; size = (fun _ -> n); is_output = false };
        { buf_name = "out"; dtype = Dtype.F32; size = (fun _ -> n); is_output = true } ];
    serial =
      (fun _ ->
        Kernel.make ~name ~params:[ Builder.buffer "inp"; Builder.buffer "out" ]
          [ Builder.for_ "i" (int n) [ Builder.store "out" (v "i") (body (v "i")) ] ]);
    flops = (fun _ -> float_of_int n)
  }

(* the serial reference reads one past the end of its input, so running
   it raises *)
let oob_op () = throwaway_op "oob_reference" (fun i -> Expr.Infix.(load "inp" (i + int 1)))

(* the pipeline's reference runs so far *)
let reference_runs () =
  Xpiler_obs.Metrics.value (Xpiler_obs.Metrics.counter "xpiler_unit_test_reference_runs_total")
