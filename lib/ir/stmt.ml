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

(* a shared statement or block is equal to itself without a walk; rewrites
   return what they did not change, so a rewritten kernel shares most of
   its input *)
let rec equal a b =
  a == b
  ||
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

and equal_block b1 b2 =
  b1 == b2
  ||
  match (b1, b2) with
  | [], [] -> true
  | s1 :: r1, s2 :: r2 -> equal s1 s2 && equal_block r1 r2
  | _ -> false

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

(* Every rewrite below returns its argument physically where it changes
   nothing: a statement whose expressions and children come back [==] is
   kept, and so is a list whose elements and tail do. An unchanged kernel
   is then neither copied nor allocated. Callbacks run left to right, a
   node's children before the node. *)

let map_exprs f stmt =
  match stmt with
  | For r ->
    let lo = f r.lo in
    let extent = f r.extent in
    if lo == r.lo && extent == r.extent then stmt else For { r with lo; extent }
  | Let r ->
    let value = f r.value in
    if value == r.value then stmt else Let { r with value }
  | Assign r ->
    let value = f r.value in
    if value == r.value then stmt else Assign { r with value }
  | Store r ->
    let index = f r.index in
    let value = f r.value in
    if index == r.index && value == r.value then stmt else Store { r with index; value }
  | Alloc _ -> stmt
  | If r ->
    let cond = f r.cond in
    if cond == r.cond then stmt else If { r with cond }
  | Memcpy r ->
    let dst = Intrin.map_ref f r.dst in
    let src = Intrin.map_ref f r.src in
    let len = f r.len in
    if dst == r.dst && src == r.src && len == r.len then stmt else Memcpy { dst; src; len }
  | Intrinsic i ->
    let i' = Intrin.map_exprs f i in
    if i' == i then stmt else Intrinsic i'
  | Sync | Annot _ -> stmt

(* [s'] and [rest'] rewrite the head and tail of [block] *)
let cons_shared block s s' rest rest' =
  if s' == s && rest' == rest then block else s' :: rest'

let rec map_block f block =
  match block with
  | [] -> block
  | s :: rest ->
    let s' = map_stmt f s in
    cons_shared block s s' rest (map_block f rest)

and map_stmt f stmt =
  let stmt' =
    match stmt with
    | For r ->
      let body = map_block f r.body in
      if body == r.body then stmt else For { r with body }
    | If r ->
      let then_ = map_block f r.then_ in
      let else_ = map_block f r.else_ in
      if then_ == r.then_ && else_ == r.else_ then stmt else If { r with then_; else_ }
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

(* whether [p x e] holds for one of the statement's own expressions; [p] is
   a two-argument function, so the check allocates nothing *)
let rec exists_offset p x = function
  | [] -> false
  | (r : Intrin.buf_ref) :: rest -> p x r.offset || exists_offset p x rest

let rec exists_expr p x = function [] -> false | e :: rest -> p x e || exists_expr p x rest

let own_exprs_exist p x = function
  | For r -> p x r.lo || p x r.extent
  | Let { value; _ } | Assign { value; _ } -> p x value
  | Store r -> p x r.index || p x r.value
  | If r -> p x r.cond
  | Memcpy r -> p x r.dst.offset || p x r.src.offset || p x r.len
  | Intrinsic i -> p x i.dst.offset || exists_offset p x i.srcs || exists_expr p x i.params
  | Alloc _ | Sync | Annot _ -> false

let rec subst_var x v block =
  match block with
  | [] -> block
  | s :: rest ->
    let s' = subst_stmt x v s in
    cons_shared block s s' rest (subst_var x v rest)

and subst_stmt x v stmt =
  let stmt =
    if own_exprs_exist Expr.contains_var x stmt then map_exprs (Expr.subst_var x v) stmt
    else stmt
  in
  match stmt with
  (* a loop that rebinds x keeps its body *)
  | For r when not (String.equal r.var x) ->
    let body = subst_var x v r.body in
    if body == r.body then stmt else For { r with body }
  | If r ->
    let then_ = subst_var x v r.then_ in
    let else_ = subst_var x v r.else_ in
    if then_ == r.then_ && else_ == r.else_ then stmt else If { r with then_; else_ }
  | _ -> stmt

let rename_ref old_name new_name (r : Intrin.buf_ref) =
  if String.equal r.buf old_name then { r with buf = new_name } else r

let rec rename_refs old_name new_name = function
  | [] as refs -> refs
  | r :: rest as refs ->
    let r' = rename_ref old_name new_name r in
    let rest' = rename_refs old_name new_name rest in
    if r' == r && rest' == rest then refs else r' :: rest'

let rec rename_buffer ~old_name ~new_name block =
  match block with
  | [] -> block
  | s :: rest ->
    let s' = rename_stmt old_name new_name s in
    cons_shared block s s' rest (rename_buffer ~old_name ~new_name rest)

and rename_stmt old_name new_name stmt =
  let stmt =
    match stmt with
    | For r ->
      let body = rename_buffer ~old_name ~new_name r.body in
      if body == r.body then stmt else For { r with body }
    | If r ->
      let then_ = rename_buffer ~old_name ~new_name r.then_ in
      let else_ = rename_buffer ~old_name ~new_name r.else_ in
      if then_ == r.then_ && else_ == r.else_ then stmt else If { r with then_; else_ }
    | _ -> stmt
  in
  let stmt =
    if own_exprs_exist Expr.contains_load old_name stmt then
      map_exprs (Expr.rename_buffer ~old_name ~new_name) stmt
    else stmt
  in
  match stmt with
  | Store r when String.equal r.buf old_name -> Store { r with buf = new_name }
  | Alloc r when String.equal r.buf old_name -> Alloc { r with buf = new_name }
  | Memcpy r ->
    let dst = rename_ref old_name new_name r.dst in
    let src = rename_ref old_name new_name r.src in
    if dst == r.dst && src == r.src then stmt else Memcpy { r with dst; src }
  | Intrinsic i ->
    let dst = rename_ref old_name new_name i.dst in
    let srcs = rename_refs old_name new_name i.srcs in
    if dst == i.dst && srcs == i.srcs then stmt else Intrinsic { i with dst; srcs }
  | _ -> stmt

let rec simplify block =
  match block with
  | [] -> block
  | s :: rest -> (
    match map_exprs Expr.simplify s with
    | If { cond = Expr.Int 0; else_; _ } ->
      let kept = simplify else_ in
      kept @ simplify rest
    | If { cond = Expr.Int _; then_; _ } ->
      let kept = simplify then_ in
      kept @ simplify rest
    | For { extent = Expr.Int n; _ } when n <= 0 -> simplify rest
    | If r as s' ->
      let then_ = simplify r.then_ in
      let else_ = simplify r.else_ in
      let s' = if then_ == r.then_ && else_ == r.else_ then s' else If { r with then_; else_ } in
      cons_shared block s s' rest (simplify rest)
    | For r as s' ->
      let body = simplify r.body in
      let s' = if body == r.body then s' else For { r with body } in
      cons_shared block s s' rest (simplify rest)
    | s' -> cons_shared block s s' rest (simplify rest))

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
