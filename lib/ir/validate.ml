type error = { where : string; message : string }

let error_to_string e = Printf.sprintf "%s: %s" e.where e.message
let errors_to_string es = String.concat "\n" (List.map error_to_string es)

type env = { vars : string list; bufs : string list }

let check kernel =
  let errors = ref [] in
  let err where message = errors := { where; message } :: !errors in
  (* one walk that allocates nothing while every name is bound; only an
     unbound name pays for the deduplicated report *)
  let rec mem x = function [] -> false | y :: ys -> String.equal x y || mem x ys in
  let rec bound env = function
    | Expr.Int _ | Expr.Float _ -> true
    | Expr.Var x -> mem x env.vars
    | Expr.Load (b, i) -> mem b env.bufs && bound env i
    | Expr.Binop (_, l, r) -> bound env l && bound env r
    | Expr.Unop (_, x) | Expr.Cast (_, x) -> bound env x
    | Expr.Select (c, t, f) -> bound env c && bound env t && bound env f
  in
  let check_expr env what name e =
    if not (bound env e) then begin
      let where = what ^ name in
      List.iter
        (fun v -> if not (List.mem v env.vars) then err where ("unbound variable " ^ v))
        (Expr.free_vars e);
      List.iter
        (fun b -> if not (List.mem b env.bufs) then err where ("unbound buffer " ^ b))
        (Expr.buffers_read e)
    end
  in
  let check_buf env what name b =
    if not (mem b env.bufs) then err (what ^ name) ("unbound buffer " ^ b)
  in
  let launch_axes = List.map fst kernel.Kernel.launch in
  let rec check_block env block =
    ignore
      (List.fold_left
         (fun env stmt ->
           match stmt with
           | Stmt.For r ->
             check_expr env "for " r.var r.lo;
             check_expr env "for " r.var r.extent;
             (match r.kind with
             | Stmt.Parallel ax when not (List.mem ax launch_axes) ->
               err ("for " ^ r.var)
                 (Printf.sprintf "parallel axis %s not in launch configuration"
                    (Axis.to_string ax))
             | _ -> ());
             check_block { env with vars = r.var :: env.vars } r.body;
             env
           | Stmt.Let r ->
             check_expr env "let " r.var r.value;
             { env with vars = r.var :: env.vars }
           | Stmt.Assign r ->
             if not (List.mem r.var env.vars) then
               err ("assign " ^ r.var) ("unbound variable " ^ r.var);
             check_expr env "assign " r.var r.value;
             env
           | Stmt.Store r ->
             check_buf env "store " r.buf r.buf;
             check_expr env "store " r.buf r.index;
             check_expr env "store " r.buf r.value;
             env
           | Stmt.Alloc r ->
             if r.size <= 0 then err ("alloc " ^ r.buf) "non-positive size";
             if List.mem r.buf env.bufs then
               err ("alloc " ^ r.buf) "buffer name shadows an existing buffer";
             { env with bufs = r.buf :: env.bufs }
           | Stmt.If r ->
             check_expr env "if" "" r.cond;
             check_block env r.then_;
             check_block env r.else_;
             env
           | Stmt.Memcpy r ->
             check_buf env "memcpy" "" r.dst.buf;
             check_buf env "memcpy" "" r.src.buf;
             check_expr env "memcpy" "" r.dst.offset;
             check_expr env "memcpy" "" r.src.offset;
             check_expr env "memcpy" "" r.len;
             env
           | Stmt.Intrinsic i ->
             let what = "intrinsic " and name = Intrin.op_name i.op in
             check_buf env what name i.dst.buf;
             check_expr env what name i.dst.offset;
             List.iter
               (fun (r : Intrin.buf_ref) ->
                 check_buf env what name r.buf;
                 check_expr env what name r.offset)
               i.srcs;
             List.iter (check_expr env what name) i.params;
             if List.length i.srcs <> Intrin.arity i.op then
               err (what ^ name)
                 (Printf.sprintf "expected %d source buffers, got %d" (Intrin.arity i.op)
                    (List.length i.srcs));
             if List.length i.params <> Intrin.param_count i.op then
               err (what ^ name)
                 (Printf.sprintf "expected %d parameters, got %d" (Intrin.param_count i.op)
                    (List.length i.params));
             env
           | Stmt.Sync | Stmt.Annot _ -> env)
         env block)
  in
  let env0 =
    { vars = List.map (fun (p : Kernel.param) -> p.name) (Kernel.scalar_params kernel);
      bufs = List.map (fun (p : Kernel.param) -> p.name) (Kernel.buffer_params kernel)
    }
  in
  (* launch axes are readable as variables through their binding loops only;
     the parallel loop introduces the name, so nothing to add here. *)
  check_block env0 kernel.Kernel.body;
  match List.rev !errors with [] -> Ok () | es -> Error es
