open Xpiler_ir

(* replace the first statement (pre-order) satisfying the predicate; [None]
   when nothing matched *)
let rec rewrite_first p f block =
  match block with
  | [] -> None
  | s :: rest ->
    if p s then Some (f s @ rest)
    else begin
      let try_inner rebuild body =
        match rewrite_first p f body with
        | Some body' -> Some (rebuild body' :: rest)
        | None -> None
      in
      let inner =
        match s with
        | Stmt.For r -> try_inner (fun b -> Stmt.For { r with body = b }) r.body
        | Stmt.If r -> (
          match rewrite_first p f r.then_ with
          | Some t -> Some (Stmt.If { r with then_ = t } :: rest)
          | None -> try_inner (fun b -> Stmt.If { r with else_ = b }) r.else_)
        | Stmt.Let _ | Stmt.Assign _ | Stmt.Store _ | Stmt.Alloc _ | Stmt.Memcpy _
        | Stmt.Intrinsic _ | Stmt.Sync | Stmt.Annot _ -> None
      in
      match inner with
      | Some _ as result -> result
      | None -> (
        match rewrite_first p f rest with
        | Some rest' -> Some (s :: rest')
        | None -> None)
    end

let rewrite_loop var f block =
  rewrite_first
    (function Stmt.For r -> String.equal r.var var | _ -> false)
    (function
      | Stmt.For r -> f ~var:r.var ~lo:r.lo ~extent:r.extent ~kind:r.kind ~body:r.body
      | _ -> assert false)
    block

let count_matching select block =
  Stmt.fold (fun acc s -> if select s then acc + 1 else acc) 0 block

let rewrite_nth n select f block =
  let count = ref (-1) in
  Stmt.map_block
    (fun s ->
      if select s then begin
        incr count;
        if !count = n then Some (f s) else None
      end
      else None)
    block

let const_extent e =
  match Expr.simplify e with
  | Expr.Int n -> Ok n
  | e -> Error (Printf.sprintf "extent %s is not a compile-time constant" (Expr.to_string e))

let fresh_serial_names k =
  let used =
    lazy
      (Stmt.fold
         (fun used s ->
           match s with
           | Stmt.For r -> r.var :: used
           | Stmt.Let r -> r.var :: used
           | Stmt.Alloc r -> r.buf :: used
           | _ -> used)
         (Kernel.param_names k) k.Kernel.body)
  in
  let i = ref (-1) in
  let rec next () =
    incr i;
    let candidate = Printf.sprintf "i%d" !i in
    if List.mem candidate (Lazy.force used) then next () else candidate
  in
  next

let buffer_dtype k b =
  match
    List.find_opt
      (fun (p : Kernel.param) -> p.is_buffer && String.equal p.name b)
      k.Kernel.params
  with
  | Some p -> Some p.dtype
  | None -> (
    match List.find_opt (fun (name, _, _, _) -> String.equal name b) (Stmt.allocs k.Kernel.body) with
    | Some (_, _, dt, _) -> Some dt
    | None -> None)

let rec inline_leading_lets = function
  | Stmt.Let { var; value } :: rest -> inline_leading_lets (Stmt.subst_var var value rest)
  | block -> block
