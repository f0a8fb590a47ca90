type loop_kind = Serial | Parallel of Axis.t | Unrolled | Vectorized | Pipelined

type t =
  | For of { var : string; lo : Expr.t; extent : Expr.t; kind : loop_kind; body : t list }
  | Let of { var : string; value : Expr.t }
  | Assign of { var : string; value : Expr.t }
  | Store of { buf : string; index : Expr.t; value : Expr.t }
  | Alloc of { buf : string; scope : Scope.t; dtype : Dtype.t; size : int }
  | If of { cond : Expr.t; then_ : t list; else_ : t list }
  | Memcpy of { dst : Intrin.buf_ref; src : Intrin.buf_ref; len : Expr.t }
  | Intrinsic of Intrin.t
  | Sync
  | Annot of { key : string; value : string }

let rec equal a b =
  match (a, b) with
  | For f1, For f2 ->
    String.equal f1.var f2.var && Expr.equal f1.lo f2.lo && Expr.equal f1.extent f2.extent
    && f1.kind = f2.kind && equal_block f1.body f2.body
  | Let l1, Let l2 -> String.equal l1.var l2.var && Expr.equal l1.value l2.value
  | Assign a1, Assign a2 -> String.equal a1.var a2.var && Expr.equal a1.value a2.value
  | Store s1, Store s2 ->
    String.equal s1.buf s2.buf && Expr.equal s1.index s2.index && Expr.equal s1.value s2.value
  | Alloc a1, Alloc a2 ->
    String.equal a1.buf a2.buf && Scope.equal a1.scope a2.scope
    && Dtype.equal a1.dtype a2.dtype && a1.size = a2.size
  | If i1, If i2 ->
    Expr.equal i1.cond i2.cond && equal_block i1.then_ i2.then_
    && equal_block i1.else_ i2.else_
  | Memcpy m1, Memcpy m2 ->
    String.equal m1.dst.buf m2.dst.buf && Expr.equal m1.dst.offset m2.dst.offset
    && String.equal m1.src.buf m2.src.buf && Expr.equal m1.src.offset m2.src.offset
    && Expr.equal m1.len m2.len
  | Intrinsic i1, Intrinsic i2 -> Intrin.equal i1 i2
  | Sync, Sync -> true
  | Annot a1, Annot a2 -> String.equal a1.key a2.key && String.equal a1.value a2.value
  | ( (For _ | Let _ | Assign _ | Store _ | Alloc _ | If _ | Memcpy _ | Intrinsic _ | Sync
      | Annot _), _ ) -> false

and equal_block b1 b2 = List.length b1 = List.length b2 && List.for_all2 equal b1 b2

let rec hash_fold h stmt =
  let comb = Expr.hash_comb in
  match stmt with
  | For r ->
    hash_fold_block
      (Expr.hash_fold
         (Expr.hash_fold
            (comb (comb (comb h 3) (Hashtbl.hash r.var)) (Hashtbl.hash r.kind))
            r.lo)
         r.extent)
      r.body
  | Let r -> Expr.hash_fold (comb (comb h 5) (Hashtbl.hash r.var)) r.value
  | Assign r -> Expr.hash_fold (comb (comb h 7) (Hashtbl.hash r.var)) r.value
  | Store r ->
    Expr.hash_fold (Expr.hash_fold (comb (comb h 11) (Hashtbl.hash r.buf)) r.index) r.value
  | Alloc r ->
    comb
      (comb (comb (comb (comb h 13) (Hashtbl.hash r.buf)) (Hashtbl.hash r.scope))
         (Hashtbl.hash r.dtype))
      r.size
  | If r ->
    hash_fold_block (hash_fold_block (Expr.hash_fold (comb h 17) r.cond) r.then_) r.else_
  | Memcpy r ->
    Expr.hash_fold
      (Expr.hash_fold
         (Expr.hash_fold
            (comb (comb (comb h 19) (Hashtbl.hash r.dst.buf)) (Hashtbl.hash r.src.buf))
            r.dst.offset)
         r.src.offset)
      r.len
  | Intrinsic i -> Intrin.hash_fold (comb h 23) i
  | Sync -> comb h 29
  | Annot r -> comb (comb (comb h 31) (Hashtbl.hash r.key)) (Hashtbl.hash r.value)

and hash_fold_block h block = List.fold_left hash_fold (Expr.hash_comb h 37) block

let rec map_exprs f stmt =
  match stmt with
  | For r -> For { r with lo = f r.lo; extent = f r.extent; body = List.map (map_exprs f) r.body }
  | Let r -> Let { r with value = f r.value }
  | Assign r -> Assign { r with value = f r.value }
  | Store r -> Store { r with index = f r.index; value = f r.value }
  | Alloc _ -> stmt
  | If r ->
    If
      { cond = f r.cond;
        then_ = List.map (map_exprs f) r.then_;
        else_ = List.map (map_exprs f) r.else_
      }
  | Memcpy r ->
    Memcpy
      { dst = { r.dst with offset = f r.dst.offset };
        src = { r.src with offset = f r.src.offset };
        len = f r.len
      }
  | Intrinsic i -> Intrinsic (Intrin.map_exprs f i)
  | Sync | Annot _ -> stmt

let rec map_block f block = List.map (map_stmt f) block

and map_stmt f stmt =
  let stmt' =
    match stmt with
    | For r -> For { r with body = map_block f r.body }
    | If r -> If { r with then_ = map_block f r.then_; else_ = map_block f r.else_ }
    | Let _ | Assign _ | Store _ | Alloc _ | Memcpy _ | Intrinsic _ | Sync | Annot _ -> stmt
  in
  match f stmt' with Some s -> s | None -> stmt'

let rec iter f block = List.iter (iter_stmt f) block

and iter_stmt f stmt =
  f stmt;
  match stmt with
  | For r -> iter f r.body
  | If r ->
    iter f r.then_;
    iter f r.else_
  | Let _ | Assign _ | Store _ | Alloc _ | Memcpy _ | Intrinsic _ | Sync | Annot _ -> ()

let fold f acc block =
  let acc = ref acc in
  iter (fun s -> acc := f !acc s) block;
  !acc

let dedup = Xpiler_util.Listx.dedup

let buffers_written block =
  fold
    (fun acc s ->
      match s with
      | Store r -> r.buf :: acc
      | Memcpy r -> r.dst.buf :: acc
      | Intrinsic i -> i.dst.buf :: acc
      | _ -> acc)
    [] block
  |> List.rev |> dedup

let buffers_read block =
  fold
    (fun acc s ->
      match s with
      | Store r -> List.rev_append (Expr.buffers_read r.value @ Expr.buffers_read r.index) acc
      | Let { value; _ } | Assign { value; _ } ->
        List.rev_append (Expr.buffers_read value) acc
      | If r -> List.rev_append (Expr.buffers_read r.cond) acc
      | For r ->
        List.rev_append (Expr.buffers_read r.lo @ Expr.buffers_read r.extent) acc
      | Memcpy r -> r.src.buf :: acc
      | Intrinsic i ->
        List.rev_append (List.map (fun (r : Intrin.buf_ref) -> r.buf) i.srcs) acc
      | Alloc _ | Sync | Annot _ -> acc)
    [] block
  |> List.rev |> dedup

let allocs block =
  fold
    (fun acc s -> match s with Alloc r -> (r.buf, r.scope, r.dtype, r.size) :: acc | _ -> acc)
    [] block
  |> List.rev

let loop_vars block =
  fold (fun acc s -> match s with For r -> r.var :: acc | _ -> acc) [] block
  |> List.rev |> dedup

let axes_used block =
  fold
    (fun acc s -> match s with For { kind = Parallel ax; _ } -> ax :: acc | _ -> acc)
    [] block
  |> List.rev |> dedup

let intrinsics block =
  fold (fun acc s -> match s with Intrinsic i -> i :: acc | _ -> acc) [] block |> List.rev

let has_sync block = fold (fun acc s -> acc || s = Sync) false block
let count_stmts block = fold (fun acc _ -> acc + 1) 0 block

let rec max_loop_depth block =
  List.fold_left
    (fun acc s ->
      match s with
      | For r -> max acc (1 + max_loop_depth r.body)
      | If r -> max acc (max (max_loop_depth r.then_) (max_loop_depth r.else_))
      | _ -> acc)
    0 block

let rec subst_var x v block =
  List.map
    (fun stmt ->
      match stmt with
      | For r when String.equal r.var x ->
        (* the loop rebinds x: only substitute in the bounds *)
        For { r with lo = Expr.subst_var x v r.lo; extent = Expr.subst_var x v r.extent }
      | For r ->
        For
          { r with
            lo = Expr.subst_var x v r.lo;
            extent = Expr.subst_var x v r.extent;
            body = subst_var x v r.body
          }
      | Let r when String.equal r.var x -> Let { r with value = Expr.subst_var x v r.value }
      | If r ->
        If
          { cond = Expr.subst_var x v r.cond;
            then_ = subst_var x v r.then_;
            else_ = subst_var x v r.else_
          }
      | _ -> map_exprs (Expr.subst_var x v) stmt)
    block

let rename_buffer ~old_name ~new_name block =
  map_block
    (fun stmt ->
      let ren b = if String.equal b old_name then new_name else b in
      let ren_ref (r : Intrin.buf_ref) = { r with Intrin.buf = ren r.buf } in
      let stmt = map_exprs (Expr.rename_buffer ~old_name ~new_name) stmt in
      match stmt with
      | Store r -> Some (Store { r with buf = ren r.buf })
      | Alloc r -> Some (Alloc { r with buf = ren r.buf })
      | Memcpy r -> Some (Memcpy { r with dst = ren_ref r.dst; src = ren_ref r.src })
      | Intrinsic i ->
        Some (Intrinsic { i with dst = ren_ref i.dst; srcs = List.map ren_ref i.srcs })
      | _ -> Some stmt)
    block

let simplify block =
  let rec go block =
    List.concat_map
      (fun stmt ->
        let stmt = map_exprs Expr.simplify stmt in
        match stmt with
        | If { cond = Expr.Int 0; else_; _ } -> go else_
        | If { cond = Expr.Int _; then_; _ } -> go then_
        | If r -> [ If { r with then_ = go r.then_; else_ = go r.else_ } ]
        | For { extent = Expr.Int n; _ } when n <= 0 -> []
        | For r -> [ For { r with body = go r.body } ]
        | _ -> [ stmt ])
      block
  in
  go block

let kind_str = function
  | Serial -> ""
  | Parallel ax -> Printf.sprintf " /* parallel %s */" (Axis.to_string ax)
  | Unrolled -> " /* unroll */"
  | Vectorized -> " /* vectorize */"
  | Pipelined -> " /* pipeline */"

let to_string ?(indent = 0) block =
  let buf = Buffer.create 256 in
  let pad n = String.make (2 * n) ' ' in
  let rec go n block = List.iter (stmt n) block
  and stmt n s =
    let p = pad n in
    match s with
    | For r ->
      Buffer.add_string buf
        (Printf.sprintf "%sfor (%s = %s; %s < %s; %s++)%s {\n" p r.var
           (Expr.to_string r.lo) r.var
           (Expr.to_string Expr.(Binop (Add, r.lo, r.extent)) )
           r.var (kind_str r.kind));
      go (n + 1) r.body;
      Buffer.add_string buf (p ^ "}\n")
    | Let r -> Buffer.add_string buf (Printf.sprintf "%slet %s = %s;\n" p r.var (Expr.to_string r.value))
    | Assign r -> Buffer.add_string buf (Printf.sprintf "%s%s = %s;\n" p r.var (Expr.to_string r.value))
    | Store r ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s[%s] = %s;\n" p r.buf (Expr.to_string r.index)
           (Expr.to_string r.value))
    | Alloc r ->
      Buffer.add_string buf
        (Printf.sprintf "%salloc %s %s %s[%d];\n" p (Scope.to_string r.scope)
           (Dtype.to_string r.dtype) r.buf r.size)
    | If r ->
      Buffer.add_string buf (Printf.sprintf "%sif (%s) {\n" p (Expr.to_string r.cond));
      go (n + 1) r.then_;
      if r.else_ <> [] then begin
        Buffer.add_string buf (p ^ "} else {\n");
        go (n + 1) r.else_
      end;
      Buffer.add_string buf (p ^ "}\n")
    | Memcpy r ->
      Buffer.add_string buf
        (Printf.sprintf "%smemcpy(%s + %s, %s + %s, %s);\n" p r.dst.buf
           (Expr.to_string r.dst.offset) r.src.buf (Expr.to_string r.src.offset)
           (Expr.to_string r.len))
    | Intrinsic i -> Buffer.add_string buf (Printf.sprintf "%s%s;\n" p (Intrin.to_string i))
    | Sync -> Buffer.add_string buf (p ^ "sync;\n")
    | Annot r -> Buffer.add_string buf (Printf.sprintf "%s// @%s: %s\n" p r.key r.value)
  in
  go indent block;
  Buffer.contents buf
