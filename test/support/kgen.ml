(* Random well-formed kernel generator for property-based testing.

   Generates small sequential kernels over two input buffers and one output
   buffer, with nested loops, affine indices kept in bounds by construction,
   guards, scalar accumulators and elementwise stores. Used to fuzz
   parser/printer round-trips and pass-sequence semantic preservation. *)

open Xpiler_ir
module Rng = Xpiler_util.Rng

let buf_size = 256

(* an affine in-bounds index over the loop variables in scope:
   sum coeff_i * v_i + c with the maximum value < buf_size *)
let gen_index rng vars =
  (* vars: (name, extent) innermost last *)
  let rec build budget = function
    | [] -> (Expr.Int (if budget > 0 then Rng.int rng (min budget 8) else 0), 0)
    | (v, extent) :: rest ->
      if Rng.bernoulli rng 0.7 && extent > 0 then begin
        let max_coeff = max 1 (budget / extent) in
        let coeff = 1 + Rng.int rng (min max_coeff 4) in
        let e, used = build (budget - (coeff * (extent - 1))) rest in
        ( Expr.simplify
            (Expr.Binop (Expr.Add, Expr.Binop (Expr.Mul, Expr.Var v, Expr.Int coeff), e)),
          used + (coeff * (extent - 1)) )
      end
      else build budget rest
  in
  let e, _ = build (buf_size - 1) vars in
  e

let gen_value rng vars depth =
  let leaf () =
    match Rng.int rng 4 with
    | 0 -> Expr.Float (float_of_int (Rng.int_in rng (-3) 3) /. 2.0)
    | _ ->
      let b = Rng.choose rng [ "a"; "b" ] in
      Expr.Load (b, gen_index rng vars)
  in
  let rec go depth =
    if depth = 0 then leaf ()
    else
      match Rng.int rng 6 with
      | 0 -> Expr.Binop (Expr.Add, go (depth - 1), go (depth - 1))
      | 1 -> Expr.Binop (Expr.Sub, go (depth - 1), go (depth - 1))
      | 2 -> Expr.Binop (Expr.Mul, go (depth - 1), go (depth - 1))
      | 3 -> Expr.Binop (Expr.Max, go (depth - 1), go (depth - 1))
      | 4 -> Expr.Unop (Expr.Tanh, go (depth - 1))
      | _ -> leaf ()
  in
  go depth

let gen_body rng vars fuel =
  let rec stmts vars fuel =
    if fuel <= 0 then []
    else begin
      let stmt, cost =
        match Rng.int rng 10 with
        | 0 | 1 | 2 when List.length vars < 3 ->
          (* a nested loop *)
          let extent = Rng.choose rng [ 2; 4; 8; 16 ] in
          let v = Printf.sprintf "v%d" (List.length vars + Rng.int rng 100) in
          if List.mem_assoc v vars then (None, 1)
          else begin
            let inner = stmts ((v, extent) :: vars) (fuel - 2) in
            if inner = [] then (None, 1)
            else
              ( Some
                  (Stmt.For
                     { var = v; lo = Expr.Int 0; extent = Expr.Int extent;
                       kind = Stmt.Serial; body = inner }),
                3 )
          end
        | 3 when vars <> [] ->
          (* a guard over part of the iteration space *)
          let v, extent = Rng.choose rng vars in
          let inner = stmts vars (fuel - 2) in
          if inner = [] then (None, 1)
          else
            ( Some
                (Stmt.If
                   { cond =
                       Expr.Binop (Expr.Lt, Expr.Var v, Expr.Int (max 1 (extent / 2)));
                     then_ = inner;
                     else_ = []
                   }),
              2 )
        | _ ->
          ( Some
              (Stmt.Store
                 { buf = "out"; index = gen_index rng vars; value = gen_value rng vars 2 }),
            1 )
      in
      match stmt with
      | Some s -> s :: stmts vars (fuel - cost)
      | None -> stmts vars (fuel - cost)
    end
  in
  stmts vars fuel

let kernel rng =
  let open Xpiler_ir in
  let fuel = 3 + Rng.int rng 8 in
  let body = gen_body rng [] fuel in
  let body =
    if body = [] then [ Stmt.Store { buf = "out"; index = Expr.Int 0; value = Expr.Float 1.0 } ]
    else body
  in
  Kernel.make ~name:"fuzz"
    ~params:[ Builder.buffer "a"; Builder.buffer "b"; Builder.buffer "out" ]
    body

let buffer_sizes = [ ("a", buf_size); ("b", buf_size); ("out", buf_size) ]

(* A perfect-nest body for interchange legality: the loops [v1 < e1] (outer)
   and [v2 < e2] around up to four statements over the buffers [out],
   [out2] and [inp], with an enclosing variable [n]. Indexes are affine in
   i, j and n, some with a large coefficient, some reassociated or padded
   so that linear-equal indexes differ structurally ([x + j % 1] decomposes
   differently yet normalizes the same), some with [/], [%], the fused-loop
   pair [x / c * c + x % c] (also with mismatched parts, and with c = 0), a
   product of loop variables, a float literal, a load of [idx] or of a
   stored buffer, or [x / n], which raises when evaluated at n = 0.
   Statements store to one or several buffers, often at the previous
   store's index, a linear-equal form of it or that index shifted by 256,
   read a stored buffer at its own index or at another, and sometimes sit
   under an [If] or an inner loop, bind a [Let], or copy a buffer with
   [Memcpy] or an intrinsic. Extents cover the empty box, 1, small and
   mid-sized boxes, and products of exactly 4,096 and above; now and then
   v1 = v2. *)
let interchange rng =
  let open Expr in
  let pick xs = Rng.choose rng xs in
  let coeff () =
    if Rng.bernoulli rng 0.05 then pick [ 1 lsl 41; -(1 lsl 41); 1 lsl 39 ]
    else Rng.int_in rng (-8) 8
  in
  let v1 = "i" in
  let v2 = if Rng.bernoulli rng 0.05 then "i" else "j" in
  let affine () =
    let c1 = coeff () and c2 = coeff () and c3 = Rng.int_in rng (-2) 2 and k = Rng.int rng 17 in
    let terms =
      [ Binop (Mul, Int c1, Var v1); Binop (Mul, Var "j", Int c2); Binop (Mul, Int c3, Var "n") ]
    in
    let terms = if Rng.bernoulli rng 0.3 then List.rev terms else terms in
    List.fold_left (fun acc t -> Binop (Add, acc, t)) (Int k) terms
  in
  let rec index depth =
    let x = affine () in
    match Rng.int rng 16 with
    | 0 -> Binop (Div, x, Int 2)
    | 1 -> Binop (Mod, x, Int 3)
    | 2 when depth > 0 -> Binop (Add, Load ("idx", index (depth - 1)), Var "j")
    | 3 when depth > 0 -> Binop (Add, Load ("out", index (depth - 1)), x)
    | 4 -> Binop (Add, Binop (Mul, Var v1, Var "j"), x)
    | 5 -> Binop (Add, Binop (Mul, Int 0, Load ("idx", Var v1)), x)
    | 6 -> Binop (Div, x, Var "n")
    | 7 -> Binop (Add, x, Float 1.0)
    | 8 -> Cast (Dtype.I32, x)
    | 9 ->
      (* the fused-loop pair, which evaluates to x; with c = 0 it raises *)
      let c = pick [ 0; 1; 4; 256 ] in
      Binop (Add, Binop (Mul, Binop (Div, x, Int c), Int c), Binop (Mod, x, Int c))
    | 10 -> Binop (Add, Binop (Mul, Binop (Div, x, Int 4), Int 8), Binop (Mod, x, Int 4))
    | 11 -> Binop (Add, Binop (Mul, Binop (Div, x, Int 4), Int 4), Binop (Mod, affine (), Int 4))
    | _ -> x
  in
  (* an index linear-equal to [x] *)
  let variant x =
    match Rng.int rng 5 with
    | 0 -> Binop (Add, Int 0, x)
    | 1 -> Binop (Add, x, Binop (Mod, Var "j", Int 1))
    | 2 -> Binop (Sub, Binop (Add, x, Var "n"), Var "n")
    | _ -> x
  in
  let bufs = [ "out"; "out2" ] in
  let last_index = ref (Int 0) in
  let store () =
    let buf = pick bufs in
    let idx =
      match Rng.int rng 10 with
      | 0 | 1 | 2 -> variant !last_index
      | 3 | 4 -> Binop (Add, !last_index, Int 256)
      | _ -> index 1
    in
    last_index := idx;
    let value =
      match Rng.int rng 5 with
      | 0 -> Float 1.0
      | 1 -> Load ("inp", idx)
      | 2 -> Binop (Add, Load (buf, variant idx), Float 1.0)
      | 3 -> Binop (Add, Load (pick bufs, index 1), Float 1.0)
      | _ -> Load (buf, idx)
    in
    Stmt.Store { buf; index = idx; value }
  in
  let rec stmt depth =
    match Rng.int rng 10 with
    | 0 when depth > 0 ->
      Stmt.If
        { cond = Binop (Lt, Load (pick [ "inp"; "out" ], index 0), Float 0.5);
          then_ = [ stmt (depth - 1) ];
          else_ = []
        }
    | 1 when depth > 0 ->
      Stmt.For
        { var = "k"; lo = Int 0; extent = Int (1 + Rng.int rng 3); kind = Stmt.Serial;
          body = [ stmt (depth - 1) ]
        }
    | 2 -> Stmt.Let { var = "t"; value = Load (pick [ "inp"; "out"; "out2" ], index 1) }
    | 3 ->
      Stmt.Memcpy
        { dst = { Intrin.buf = pick [ "out"; "inp" ]; offset = index 0 };
          src = { Intrin.buf = pick [ "out"; "out2"; "inp" ]; offset = index 1 };
          len = Int 4
        }
    | 4 ->
      Stmt.Intrinsic
        { Intrin.op = pick [ Intrin.Vec_add; Intrin.Mma ];
          dst = { Intrin.buf = pick [ "out"; "inp" ]; offset = index 0 };
          srcs =
            [ { Intrin.buf = "inp"; offset = Int 0 };
              { Intrin.buf = pick [ "out"; "out2" ]; offset = index 1 } ];
          params = [ Int 4; Load ("idx", index 0) ]
        }
    | _ -> store ()
  in
  let e1, e2 =
    match Rng.int rng 10 with
    | 0 -> pick [ (64, 64); (4096, 1); (1, 4096); (65, 64); (64, 65); (4097, 1) ]
    | 1 -> (Rng.int_in rng (-1) 1, Rng.int_in rng 0 8)
    | 2 | 3 | 4 | 5 -> (Rng.int_in rng 1 8, Rng.int_in rng 1 8)
    | _ -> (Rng.int_in rng 1 64, Rng.int_in rng 1 64)
  in
  let n = Rng.choose rng [ 0; 1; 1; 2; 2; 3; 4 ] in
  let body = List.init n (fun _ -> stmt 2) in
  (v1, e1, v2, e2, body)
