open Xpiler_ir
open Xpiler_machine

(* Peel the outer parallel nest (with interleaved shared allocations) back
   into launch metadata + hoisted declarations + per-thread body. *)
let peel_launch body =
  let is_shared_alloc = function
    | Stmt.Alloc { scope = Scope.Shared; _ } -> true
    | _ -> false
  in
  let rec peel body =
    let decls, rest = List.partition is_shared_alloc body in
    match rest with
    | [ Stmt.For { kind = Stmt.Parallel ax; var; lo = Expr.Int 0; extent = Expr.Int n; body = b } ]
      when String.equal var (Dialect.axis_var ax) ->
      let launch, inner_decls, inner = peel b in
      ((ax, n) :: launch, decls @ inner_decls, inner)
    | _ -> ([], [], body)
  in
  (* only treat the alloc prefix as hoistable when a parallel loop follows;
     otherwise keep the body untouched *)
  let rec peel_safe body =
    match body with
    | [ Stmt.For { kind = Stmt.Parallel ax; var; lo = Expr.Int 0; extent = Expr.Int n; body = b } ]
      when String.equal var (Dialect.axis_var ax) ->
      let launch, decls, inner = peel_safe b in
      ((ax, n) :: launch, decls, inner)
    | _ ->
      let decls, rest = List.partition is_shared_alloc body in
      (match rest with
      | [ Stmt.For { kind = Stmt.Parallel _; _ } ] when decls <> [] ->
        let launch, inner_decls, inner = peel rest in
        (launch, decls @ inner_decls, inner)
      | _ -> ([], [], body))
  in
  peel_safe body

(* float-ness inference for scalar declarations *)
let rec is_float_expr bufs (e : Expr.t) =
  match e with
  | Expr.Float _ -> true
  | Expr.Int _ -> false
  | Expr.Var _ -> false
  | Expr.Load (b, _) -> (
    match List.assoc_opt b bufs with Some dt -> Dtype.is_float dt | None -> true)
  | Expr.Binop (_, l, r) -> is_float_expr bufs l || is_float_expr bufs r
  | Expr.Unop ((Expr.Exp | Expr.Log | Expr.Sqrt | Expr.Rsqrt | Expr.Tanh | Expr.Erf | Expr.Recip | Expr.Floor), _)
    -> true
  | Expr.Unop (_, x) -> is_float_expr bufs x
  | Expr.Select (_, t, f) -> is_float_expr bufs t || is_float_expr bufs f
  | Expr.Cast (dt, _) -> Dtype.is_float dt

let ref_str (r : Intrin.buf_ref) =
  match Expr.simplify r.offset with
  | Expr.Int 0 -> r.buf
  | off -> Printf.sprintf "%s + %s" r.buf (Expr.to_string off)

let emit (d : Dialect.t) (k : Kernel.t) =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let launch, hoisted_decls, body = peel_launch k.Kernel.body in
  let launch = if launch = [] then k.Kernel.launch else launch in
  (* spell axis built-ins the dialect's way (e.g. hipThreadIdx_x) *)
  let body =
    List.fold_left
      (fun b (ax, _) ->
        let canonical = Dialect.axis_var ax in
        let surface = Dialect.surface_axis d ax in
        if String.equal canonical surface then b
        else Stmt.subst_var canonical (Expr.Var surface) b)
      body launch
  in
  (* buffer dtype environment for declarations and memcpy byte counts *)
  let bufs =
    List.filter_map
      (fun (p : Kernel.param) -> if p.is_buffer then Some (p.name, p.dtype) else None)
      k.Kernel.params
    @ List.map (fun (b, _, dt, _) -> (b, dt)) (Stmt.allocs k.Kernel.body)
  in
  let scopes =
    List.map (fun (p : Kernel.param) -> (p.name, Scope.Global)) k.Kernel.params
    @ List.map (fun (b, s, _, _) -> (b, s)) (Stmt.allocs k.Kernel.body)
  in
  let scope_of b = match List.assoc_opt b scopes with Some s -> s | None -> Scope.Global in
  if launch <> [] then begin
    out "#launch";
    List.iter (fun (ax, n) -> out " %s=%d" (Axis.to_string ax) n) launch;
    out "\n"
  end;
  let qual = d.Dialect.kernel_qualifier in
  let params =
    String.concat ", "
      (List.map
         (fun (p : Kernel.param) ->
           if p.is_buffer then Printf.sprintf "%s* %s" (Dtype.to_string p.dtype) p.name
           else Printf.sprintf "%s %s" (Dtype.to_string p.dtype) p.name)
         k.Kernel.params)
  in
  out "%svoid %s(%s) {\n" (if qual = "" then "" else qual ^ " ") k.Kernel.name params;
  let pad n = String.make (2 * n) ' ' in
  let emit_alloc n (r : Stmt.t) =
    match r with
    | Stmt.Alloc { buf = b; scope; dtype; size } ->
      let q = match Dialect.scope_qualifier d scope with Some q -> q ^ " " | None -> "" in
      out "%s%s%s %s[%d];\n" (pad n) q (Dtype.to_string dtype) b size
    | _ -> ()
  in
  let rec emit_block n block = List.iter (emit_stmt n) block
  and emit_stmt n stmt =
    match stmt with
    | Stmt.For r ->
      (match r.kind with
      | Stmt.Unrolled -> out "%s#pragma unroll\n" (pad n)
      | Stmt.Pipelined -> out "%s#pragma pipeline\n" (pad n)
      | Stmt.Vectorized -> out "%s#pragma vectorize\n" (pad n)
      | Stmt.Serial | Stmt.Parallel _ -> ());
      let hi = Expr.simplify (Expr.Binop (Expr.Add, r.lo, r.extent)) in
      out "%sfor (int %s = %s; %s < %s; %s++) {\n" (pad n) r.var (Expr.to_string r.lo) r.var
        (Expr.to_string hi) r.var;
      emit_block (n + 1) r.body;
      out "%s}\n" (pad n)
    | Stmt.Let { var; value } ->
      let ty = if is_float_expr bufs value then "float" else "int" in
      out "%s%s %s = %s;\n" (pad n) ty var (Expr.to_string value)
    | Stmt.Assign { var; value } -> out "%s%s = %s;\n" (pad n) var (Expr.to_string value)
    | Stmt.Store { buf = b; index; value } ->
      out "%s%s[%s] = %s;\n" (pad n) b (Expr.to_string index) (Expr.to_string value)
    | Stmt.Alloc _ -> emit_alloc n stmt
    | Stmt.If { cond; then_; else_ } ->
      out "%sif (%s) {\n" (pad n) (Expr.to_string cond);
      emit_block (n + 1) then_;
      if else_ <> [] then begin
        out "%s} else {\n" (pad n);
        emit_block (n + 1) else_
      end;
      out "%s}\n" (pad n)
    | Stmt.Memcpy { dst; src; len } -> emit_memcpy n dst src len
    | Stmt.Intrinsic i -> emit_intrinsic n i
    | Stmt.Sync ->
      let name =
        match d.Dialect.platform with
        | Platform.Bang -> "__sync_cluster"
        | _ -> "__syncthreads"
      in
      out "%s%s();\n" (pad n) name
    | Stmt.Annot { key; value } -> out "%s// @%s: %s\n" (pad n) key value
  and emit_memcpy n (dst : Intrin.buf_ref) (src : Intrin.buf_ref) len =
    let dscope = scope_of dst.buf and sscope = scope_of src.buf in
    match d.Dialect.platform with
    | Platform.Bang ->
      let dir = Dialect.memcpy_direction ~src:sscope ~dst:dscope in
      let dt =
        match List.assoc_opt dst.buf bufs with Some dt -> dt | None -> Dtype.F32
      in
      out "%s__memcpy(%s, %s, %s * sizeof(%s), %s);\n" (pad n) (ref_str dst) (ref_str src)
        (Expr.to_string (Expr.simplify len))
        (Dtype.to_string dt) dir
    | Platform.Vnni ->
      let dt =
        match List.assoc_opt dst.buf bufs with Some dt -> dt | None -> Dtype.F32
      in
      out "%smemcpy(%s, %s, %s * sizeof(%s));\n" (pad n) (ref_str dst) (ref_str src)
        (Expr.to_string (Expr.simplify len))
        (Dtype.to_string dt)
    | Platform.Cuda | Platform.Hip ->
      (* fragments move through the wmma load/store intrinsics; everything
         else uses the cooperative copy helper *)
      let frag = Scope.equal dscope Scope.Fragment || Scope.equal sscope Scope.Fragment in
      if frag && Scope.equal dscope Scope.Fragment then
        let name =
          if d.Dialect.platform = Platform.Cuda then "wmma::load_matrix_sync"
          else "__hip_load_matrix"
        in
        out "%s%s(%s, %s, %s);\n" (pad n) name (ref_str dst) (ref_str src)
          (Expr.to_string (Expr.simplify len))
      else if frag then
        let name =
          if d.Dialect.platform = Platform.Cuda then "wmma::store_matrix_sync"
          else "__hip_store_matrix"
        in
        out "%s%s(%s, %s, %s);\n" (pad n) name (ref_str dst) (ref_str src)
          (Expr.to_string (Expr.simplify len))
      else
        out "%s__copy(%s, %s, %s);\n" (pad n) (ref_str dst) (ref_str src)
          (Expr.to_string (Expr.simplify len))
  and emit_intrinsic n (i : Intrin.t) =
    let name =
      match Dialect.spelling_of_op d i.op with
      | Some s -> s
      | None -> Intrin.op_name i.op (* unsupported on this platform: will not re-parse *)
    in
    let e x = Expr.to_string (Expr.simplify x) in
    let dst = ref_str i.dst in
    let srcs = List.map ref_str i.srcs in
    let args =
      match (i.op, i.srcs, i.params) with
      | (Intrin.Mma | Intrin.Mlp), [ _; _ ], [ m; k; nn ] ->
        [ dst ] @ srcs @ [ e m; e k; e nn ]
      | Intrin.Conv2d, [ _; _ ], ps -> ([ dst ] @ srcs) @ List.map e ps
      | Intrin.Vec_fill, [], [ len; scalar ] -> [ dst; e scalar; e len ]
      | (Intrin.Vec_scale | Intrin.Vec_adds), [ _ ], [ len; scalar ] ->
        [ dst ] @ srcs @ [ e scalar; e len ]
      | _, _, [ len ] -> ([ dst ] @ srcs) @ [ e len ]
      | _, _, ps -> ([ dst ] @ srcs) @ List.map e ps
    in
    out "%s%s(%s);\n" (pad n) name (String.concat ", " args)
  in
  List.iter (emit_alloc 1) hoisted_decls;
  emit_block 1 body;
  out "}\n";
  Buffer.contents buf

let lines_of_code src =
  String.split_on_char '\n' src
  |> List.filter (fun l ->
         let l = String.trim l in
         l <> "" && not (String.length l >= 2 && String.sub l 0 2 = "//"))
  |> List.length
