open Xpiler_ir

exception Parse_error of string

exception Return_guard of Expr.t
(* internal: `if (cond) return;` — caught by the block parser, which wraps
   the remaining statements of the block in the negated guard *)

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type state = {
  toks : Token.t array;
  mutable i : int;
  d : Dialect.t;
  mutable bufs : (string * Dtype.t) list;
  mutable launch : (Axis.t * int) list;
}

let peek st = st.toks.(st.i)
let peek2 st = if st.i + 1 < Array.length st.toks then st.toks.(st.i + 1) else Token.Eof
let advance st = st.i <- st.i + 1

let next st =
  let t = peek st in
  advance st;
  t

let expect_punct st p =
  match next st with
  | Token.Punct q when String.equal p q -> ()
  | t -> fail "expected '%s' but found %s" p (Token.to_string t)

let expect_ident st =
  match next st with
  | Token.Ident s -> s
  | t -> fail "expected identifier but found %s" (Token.to_string t)

let accept_punct st p =
  match peek st with
  | Token.Punct q when String.equal p q ->
    advance st;
    true
  | _ -> false

let is_type_name st name = List.mem_assoc name st.d.Dialect.type_names
let dtype_of_name st name = List.assoc name st.d.Dialect.type_names

let math_unops =
  [ ("expf", Expr.Exp); ("logf", Expr.Log); ("sqrtf", Expr.Sqrt); ("rsqrtf", Expr.Rsqrt);
    ("tanhf", Expr.Tanh); ("erff", Expr.Erf); ("fabsf", Expr.Abs); ("__frcp", Expr.Recip);
    ("floorf", Expr.Floor); ("exp", Expr.Exp); ("sqrt", Expr.Sqrt); ("tanh", Expr.Tanh) ]

let math_binops = [ ("min", Expr.Min); ("max", Expr.Max); ("fminf", Expr.Min); ("fmaxf", Expr.Max) ]

(* ---- expressions -------------------------------------------------------- *)

let resolve_ident st name =
  match List.assoc_opt name st.d.Dialect.axis_idents with
  | Some ax -> Expr.Var (Dialect.axis_var ax)
  | None -> (
    match List.assoc_opt name st.d.Dialect.dim_idents with
    | Some ax -> (
      match List.assoc_opt ax st.launch with
      | Some n -> Expr.Int n
      | None -> fail "built-in %s used but %s is not in the launch configuration" name
                  (Axis.to_string ax))
    | None -> Expr.Var name)

let rec parse_expr st = parse_ternary st

and parse_ternary st =
  let c = parse_binary st 0 in
  if accept_punct st "?" then begin
    let t = parse_ternary st in
    expect_punct st ":";
    let f = parse_ternary st in
    Expr.Select (c, t, f)
  end
  else c

and binop_of_punct = function
  | "||" -> Some (1, Expr.Or)
  | "&&" -> Some (2, Expr.And)
  | "==" -> Some (3, Expr.Eq)
  | "!=" -> Some (3, Expr.Ne)
  | "<" -> Some (4, Expr.Lt)
  | "<=" -> Some (4, Expr.Le)
  | ">" -> Some (4, Expr.Gt)
  | ">=" -> Some (4, Expr.Ge)
  | "+" -> Some (5, Expr.Add)
  | "-" -> Some (5, Expr.Sub)
  | "*" -> Some (6, Expr.Mul)
  | "/" -> Some (6, Expr.Div)
  | "%" -> Some (6, Expr.Mod)
  | _ -> None

and parse_binary st min_prec =
  let lhs = parse_unary st in
  let rec loop lhs =
    match peek st with
    | Token.Punct p -> (
      match binop_of_punct p with
      | Some (prec, op) when prec >= min_prec ->
        advance st;
        let rhs = parse_binary st (prec + 1) in
        loop (Expr.Binop (op, lhs, rhs))
      | _ -> lhs)
    | _ -> lhs
  in
  loop lhs

and parse_unary st =
  match peek st with
  | Token.Punct "-" ->
    advance st;
    Expr.Unop (Expr.Neg, parse_unary st)
  | Token.Punct "!" ->
    advance st;
    Expr.Unop (Expr.Not, parse_unary st)
  | Token.Punct "(" -> (
    (* cast or parenthesized expression *)
    match (peek2 st, st.toks.(min (st.i + 2) (Array.length st.toks - 1))) with
    | Token.Ident ty, Token.Punct ")" when is_type_name st ty ->
      advance st;
      advance st;
      advance st;
      Expr.Cast (dtype_of_name st ty, parse_unary st)
    | _ ->
      advance st;
      let e = parse_expr st in
      expect_punct st ")";
      e)
  | _ -> parse_postfix st

and parse_postfix st =
  match next st with
  | Token.Int_lit n -> Expr.Int n
  | Token.Float_lit f -> Expr.Float f
  | Token.Ident "sizeof" ->
    expect_punct st "(";
    let ty = expect_ident st in
    expect_punct st ")";
    if is_type_name st ty then Expr.Int (Dtype.size_in_bytes (dtype_of_name st ty))
    else fail "sizeof of unknown type %s" ty
  | Token.Ident name -> (
    match peek st with
    | Token.Punct "[" ->
      advance st;
      let idx = parse_expr st in
      expect_punct st "]";
      Expr.Load (name, idx)
    | Token.Punct "(" -> (
      advance st;
      let args = parse_args st in
      match (List.assoc_opt name math_unops, args) with
      | Some op, [ a ] -> Expr.Unop (op, a)
      | Some _, _ -> fail "%s expects one argument" name
      | None, _ -> (
        match (List.assoc_opt name math_binops, args) with
        | Some op, [ a; b ] -> Expr.Binop (op, a, b)
        | Some _, _ -> fail "%s expects two arguments" name
        | None, _ -> fail "unknown function %s in expression" name))
    | _ -> resolve_ident st name)
  | t -> fail "unexpected token %s in expression" (Token.to_string t)

and parse_args st =
  if accept_punct st ")" then []
  else begin
    let rec loop acc =
      let e = parse_expr st in
      if accept_punct st "," then loop (e :: acc)
      else begin
        expect_punct st ")";
        List.rev (e :: acc)
      end
    in
    loop []
  end

(* a pointer argument of an intrinsic: buf, buf + off, or &buf[off]. Codegen
   prints a multi-term offset unparenthesized, [buf + a + b], which parses
   as the left-nested [(buf + a) + b]: the buffer heads the chain and the
   terms after it are the offset. *)
let rec buf_ref_of_expr (e : Expr.t) : Intrin.buf_ref =
  match e with
  | Expr.Var b -> { buf = b; offset = Expr.Int 0 }
  | Expr.Binop (Expr.Add, Expr.Var b, off) -> { buf = b; offset = off }
  | Expr.Binop (Expr.Add, (Expr.Binop (Expr.Add, _, _) as head), off) ->
    let r = buf_ref_of_expr head in
    { r with offset = Expr.Binop (Expr.Add, r.offset, off) }
  | Expr.Load (b, off) -> { buf = b; offset = off }  (* &buf[off] is lexed via '&' below *)
  | _ -> fail "expected a buffer reference (buf, buf + offset, or &buf[offset])"

let parse_buf_arg st =
  if accept_punct st "&" then begin
    let b = expect_ident st in
    expect_punct st "[";
    let off = parse_expr st in
    expect_punct st "]";
    ({ buf = b; offset = off } : Intrin.buf_ref)
  end
  else buf_ref_of_expr (parse_expr st)

(* ---- statements --------------------------------------------------------- *)

let elem_size st buf =
  match List.assoc_opt buf st.bufs with
  | Some dt -> Dtype.size_in_bytes dt
  | None -> 4

let bytes_to_elems st (dst : Intrin.buf_ref) bytes =
  Expr.simplify (Expr.Binop (Expr.Div, bytes, Expr.Int (elem_size st dst.buf)))

let rec parse_stmt st : Stmt.t list =
  match peek st with
  | Token.Kind_pragma kind -> (
    advance st;
    match parse_stmt st with
    | [ Stmt.For r ] ->
      let k =
        match kind with
        | "unroll" -> Stmt.Unrolled
        | "pipeline" -> Stmt.Pipelined
        | "vectorize" -> Stmt.Vectorized
        | _ -> Stmt.Serial
      in
      [ Stmt.For { r with kind = k } ]
    | _ -> fail "#pragma %s must precede a for loop" kind)
  | Token.Punct "{" ->
    advance st;
    parse_block_rest st
  | Token.Ident "for" -> [ parse_for st ]
  | Token.Ident "if" -> [ parse_if st ]
  | Token.Ident "return" -> fail "early return is only supported as `if (cond) return;`"
  | Token.Ident name when List.mem_assoc name st.d.Dialect.scope_qualifiers ->
    parse_decl st ~scope:(Some (List.assoc name st.d.Dialect.scope_qualifiers)) ~consume_qual:true
  | Token.Ident name when is_type_name st name -> parse_decl st ~scope:None ~consume_qual:false
  | Token.Ident name when Dialect.find_intrinsic st.d name <> None -> parse_intrinsic st name
  | Token.Ident _ -> [ parse_assignment st ]
  | t -> fail "unexpected token %s at statement position" (Token.to_string t)

and parse_block st =
  expect_punct st "{";
  parse_block_rest st

and parse_block_rest st =
  let rec loop acc =
    if accept_punct st "}" then List.rev acc
    else begin
      match parse_stmt st with
      | stmts -> loop (List.rev_append stmts acc)
      | exception Return_guard cond ->
        (* everything after the guard runs only when the guard is false *)
        let rest = loop [] in
        List.rev ((Stmt.If { cond = Expr.Unop (Expr.Not, cond); then_ = rest; else_ = [] }) :: acc)
    end
  in
  loop []

and parse_body st =
  (* a loop/if body: either a block or a single statement *)
  match peek st with
  | Token.Punct "{" -> parse_block st
  | _ -> parse_stmt st

and parse_decl st ~scope ~consume_qual =
  if consume_qual then advance st;
  let ty = expect_ident st in
  if not (is_type_name st ty) then fail "expected a type, found %s" ty;
  let dt = dtype_of_name st ty in
  let _is_ptr = accept_punct st "*" in
  let name = expect_ident st in
  if accept_punct st "[" then begin
    let size =
      match next st with
      | Token.Int_lit n -> n
      | t -> fail "array size must be an integer literal, found %s" (Token.to_string t)
    in
    expect_punct st "]";
    expect_punct st ";";
    let scope = match scope with Some s -> s | None -> Scope.Local in
    st.bufs <- (name, dt) :: st.bufs;
    [ Stmt.Alloc { buf = name; scope; dtype = dt; size } ]
  end
  else if accept_punct st "=" then begin
    let value = parse_expr st in
    expect_punct st ";";
    [ Stmt.Let { var = name; value } ]
  end
  else begin
    expect_punct st ";";
    let zero = if Dtype.is_float dt then Expr.Float 0.0 else Expr.Int 0 in
    [ Stmt.Let { var = name; value = zero } ]
  end

and parse_for st =
  advance st;
  expect_punct st "(";
  (* init: [type] var = e0 *)
  let var =
    match next st with
    | Token.Ident ty when is_type_name st ty -> expect_ident st
    | Token.Ident v -> v
    | t -> fail "expected loop variable, found %s" (Token.to_string t)
  in
  expect_punct st "=";
  let lo = parse_expr st in
  expect_punct st ";";
  (* condition: var < hi *)
  let cond_var = expect_ident st in
  if not (String.equal cond_var var) then
    fail "loop condition must test the loop variable %s, found %s" var cond_var;
  expect_punct st "<";
  let hi = parse_expr st in
  expect_punct st ";";
  (* increment: var++ | ++var | var += 1 | var = var + 1 *)
  (match (next st, peek st) with
  | Token.Ident v, Token.Punct "++" when String.equal v var -> advance st
  | Token.Punct "++", Token.Ident v when String.equal v var -> advance st
  | Token.Ident v, Token.Punct "+=" when String.equal v var -> (
    advance st;
    match next st with
    | Token.Int_lit 1 -> ()
    | t -> fail "only unit loop steps are supported, found %s" (Token.to_string t))
  | t, _ -> fail "unsupported loop increment near %s" (Token.to_string t));
  expect_punct st ")";
  let body = parse_body st in
  let extent = Expr.simplify (Expr.Binop (Expr.Sub, hi, lo)) in
  Stmt.For { var; lo; extent; kind = Stmt.Serial; body }

and parse_if st =
  advance st;
  expect_punct st "(";
  let cond = parse_expr st in
  expect_punct st ")";
  (* the CUDA guard idiom `if (cond) return;` negates into a guard over the
     remainder of the enclosing block, handled by the block parser via the
     Guard marker *)
  match peek st with
  | Token.Ident "return" ->
    advance st;
    expect_punct st ";";
    raise (Return_guard cond)
  | Token.Punct "{" when (match (peek2 st, st.toks.(min (st.i + 2) (Array.length st.toks - 1))) with
                         | Token.Ident "return", Token.Punct ";" -> true
                         | _ -> false) ->
    advance st;
    advance st;
    expect_punct st ";";
    expect_punct st "}";
    raise (Return_guard cond)
  | _ ->
    let then_ = parse_body st in
    let else_ =
      match peek st with
      | Token.Ident "else" ->
        advance st;
        parse_body st
      | _ -> []
    in
    Stmt.If { cond; then_; else_ }

and parse_assignment st =
  let name = expect_ident st in
  match peek st with
  | Token.Punct "[" ->
    advance st;
    let idx = parse_expr st in
    expect_punct st "]";
    let op =
      match next st with
      | Token.Punct ("=" | "+=" | "-=" | "*=" as p) -> p
      | t -> fail "expected assignment operator, found %s" (Token.to_string t)
    in
    let rhs = parse_expr st in
    expect_punct st ";";
    let value =
      match op with
      | "=" -> rhs
      | "+=" -> Expr.Binop (Expr.Add, Expr.Load (name, idx), rhs)
      | "-=" -> Expr.Binop (Expr.Sub, Expr.Load (name, idx), rhs)
      | _ -> Expr.Binop (Expr.Mul, Expr.Load (name, idx), rhs)
    in
    Stmt.Store { buf = name; index = idx; value }
  | Token.Punct "++" ->
    advance st;
    expect_punct st ";";
    Stmt.Assign { var = name; value = Expr.Binop (Expr.Add, Expr.Var name, Expr.Int 1) }
  | _ ->
    let op =
      match next st with
      | Token.Punct ("=" | "+=" | "-=" | "*=" as p) -> p
      | t -> fail "expected assignment operator, found %s" (Token.to_string t)
    in
    let rhs = parse_expr st in
    expect_punct st ";";
    let value =
      match op with
      | "=" -> rhs
      | "+=" -> Expr.Binop (Expr.Add, Expr.Var name, rhs)
      | "-=" -> Expr.Binop (Expr.Sub, Expr.Var name, rhs)
      | _ -> Expr.Binop (Expr.Mul, Expr.Var name, rhs)
    in
    Stmt.Assign { var = name; value }

and parse_intrinsic st name =
  advance st;
  let signature =
    match Dialect.find_intrinsic st.d name with Some s -> s | None -> assert false
  in
  expect_punct st "(";
  let comma () = expect_punct st "," in
  let close () =
    expect_punct st ")";
    expect_punct st ";"
  in
  let intrin op dst srcs params =
    [ Stmt.Intrinsic { Intrin.op; dst; srcs; params } ]
  in
  match signature with
  | Dialect.Sync_call ->
    close ();
    [ Stmt.Sync ]
  | Dialect.Vec2 op ->
    let dst = parse_buf_arg st in
    comma ();
    let a = parse_buf_arg st in
    comma ();
    let b = parse_buf_arg st in
    comma ();
    let len = parse_expr st in
    close ();
    intrin op dst [ a; b ] [ len ]
  | Dialect.Vec1 op ->
    let dst = parse_buf_arg st in
    comma ();
    let a = parse_buf_arg st in
    comma ();
    let len = parse_expr st in
    close ();
    intrin op dst [ a ] [ len ]
  | Dialect.Vec_scalar op ->
    let dst = parse_buf_arg st in
    comma ();
    let a = parse_buf_arg st in
    comma ();
    let scalar = parse_expr st in
    comma ();
    let len = parse_expr st in
    close ();
    intrin op dst [ a ] [ len; scalar ]
  | Dialect.Fill ->
    let dst = parse_buf_arg st in
    comma ();
    let scalar = parse_expr st in
    comma ();
    let len = parse_expr st in
    close ();
    intrin Intrin.Vec_fill dst [] [ len; scalar ]
  | Dialect.Reduce op ->
    let dst = parse_buf_arg st in
    comma ();
    let a = parse_buf_arg st in
    comma ();
    let len = parse_expr st in
    close ();
    intrin op dst [ a ] [ len ]
  | Dialect.Matmul op ->
    let dst = parse_buf_arg st in
    comma ();
    let a = parse_buf_arg st in
    comma ();
    let b = parse_buf_arg st in
    comma ();
    let m = parse_expr st in
    comma ();
    let k = parse_expr st in
    comma ();
    let n = parse_expr st in
    close ();
    intrin op dst [ a; b ] [ m; k; n ]
  | Dialect.Conv ->
    let dst = parse_buf_arg st in
    comma ();
    let src = parse_buf_arg st in
    comma ();
    let w = parse_buf_arg st in
    let params =
      List.init 7 (fun _ ->
          comma ();
          parse_expr st)
    in
    close ();
    intrin Intrin.Conv2d dst [ src; w ] params
  | Dialect.Dp4a_sig ->
    let dst = parse_buf_arg st in
    comma ();
    let a = parse_buf_arg st in
    comma ();
    let b = parse_buf_arg st in
    comma ();
    let len = parse_expr st in
    close ();
    intrin Intrin.Dp4a dst [ a; b ] [ len ]
  | Dialect.Memcpy_dir ->
    let dst = parse_buf_arg st in
    comma ();
    let src = parse_buf_arg st in
    comma ();
    let bytes = parse_expr st in
    comma ();
    let _direction = expect_ident st in
    close ();
    [ Stmt.Memcpy { dst; src; len = bytes_to_elems st dst bytes } ]
  | Dialect.Memcpy_plain ->
    let dst = parse_buf_arg st in
    comma ();
    let src = parse_buf_arg st in
    comma ();
    let bytes = parse_expr st in
    close ();
    [ Stmt.Memcpy { dst; src; len = bytes_to_elems st dst bytes } ]
  | Dialect.Copy_elems ->
    let dst = parse_buf_arg st in
    comma ();
    let src = parse_buf_arg st in
    comma ();
    let len = parse_expr st in
    close ();
    [ Stmt.Memcpy { dst; src; len } ]
  | Dialect.Frag_load ->
    let frag = parse_buf_arg st in
    comma ();
    let src = parse_buf_arg st in
    comma ();
    let len = parse_expr st in
    close ();
    [ Stmt.Memcpy { dst = frag; src; len } ]
  | Dialect.Frag_store ->
    let dst = parse_buf_arg st in
    comma ();
    let frag = parse_buf_arg st in
    comma ();
    let len = parse_expr st in
    close ();
    [ Stmt.Memcpy { dst; src = frag; len } ]

(* ---- kernel ------------------------------------------------------------- *)

let parse_params st =
  expect_punct st "(";
  if accept_punct st ")" then []
  else begin
    let rec loop acc =
      let ty = expect_ident st in
      if not (is_type_name st ty) then fail "expected parameter type, found %s" ty;
      let dt = dtype_of_name st ty in
      let is_buffer = accept_punct st "*" in
      let name = expect_ident st in
      if is_buffer then st.bufs <- (name, dt) :: st.bufs;
      let p : Kernel.param = { name; dtype = dt; is_buffer } in
      if accept_punct st "," then loop (p :: acc)
      else begin
        expect_punct st ")";
        List.rev (p :: acc)
      end
    in
    loop []
  end

let axis_of_launch_name name =
  match List.find_opt (fun ax -> String.equal (Axis.to_string ax) name) Axis.all with
  | Some ax -> ax
  | None -> fail "unknown axis %s in #launch" name

let is_thread_like = function
  | Axis.Thread_x | Axis.Thread_y | Axis.Thread_z | Axis.Core_id -> true
  | Axis.Block_x | Axis.Block_y | Axis.Block_z | Axis.Task_id | Axis.Cluster_id -> false

(* wrap the per-thread body in the explicit parallel nest, hoisting shared
   allocations between the block-level and thread-level loops *)
let wrap_launch launch body =
  if launch = [] then body
  else begin
    let blocks, threads = List.partition (fun (ax, _) -> not (is_thread_like ax)) launch in
    let shared, rest =
      List.partition
        (function Stmt.Alloc { scope = Scope.Shared; _ } -> true | _ -> false)
        body
    in
    let wrap axes inner =
      List.fold_right
        (fun (ax, n) acc ->
          [ Stmt.For
              { var = Dialect.axis_var ax;
                lo = Expr.Int 0;
                extent = Expr.Int n;
                kind = Stmt.Parallel ax;
                body = acc
              }
          ])
        axes inner
    in
    let inner = if threads = [] then shared @ rest else shared @ wrap threads rest in
    wrap blocks inner
  end

let parse (d : Dialect.t) source =
  let toks = Array.of_list (Lexer.tokenize source) in
  let st = { toks; i = 0; d; bufs = []; launch = [] } in
  (* leading pragma *)
  (match peek st with
  | Token.Launch_pragma pairs ->
    advance st;
    st.launch <- List.map (fun (name, n) -> (axis_of_launch_name name, n)) pairs
  | _ -> ());
  (* kernel qualifier(s) *)
  let rec qualifiers () =
    match peek st with
    | Token.Ident q when String.equal q d.Dialect.kernel_qualifier && q <> "" ->
      advance st;
      qualifiers ()
    | Token.Ident q
      when String.length q >= 2 && String.sub q 0 2 = "__" && not (is_type_name st q)
           && q <> "void" ->
      fail "unknown qualifier %s for this dialect" q
    | _ -> ()
  in
  qualifiers ();
  (match next st with
  | Token.Ident "void" -> ()
  | t -> fail "expected 'void', found %s" (Token.to_string t));
  let name = expect_ident st in
  let params = parse_params st in
  let body = parse_block st in
  (match peek st with
  | Token.Eof -> ()
  | t -> fail "trailing tokens after kernel: %s" (Token.to_string t));
  let body = wrap_launch st.launch body in
  Kernel.make ~name ~params ~launch:st.launch body

let parse_platform pid source = parse (Dialect.of_platform pid) source
