open Xpiler_ir

(* replace the first statement (pre-order) satisfying the predicate; the
   block itself, physically, when nothing matched (a match never gives it
   back, as [f s @ rest] is never [s :: rest]), so the walk allocates only
   the path to the match *)
let rec rewrite_first p f block =
  match block with
  | [] -> block
  | s :: rest ->
    if p s then f s @ rest
    else begin
      let s' =
        match s with
        | Stmt.For r ->
          let body = rewrite_first p f r.body in
          if body == r.body then s else Stmt.For { r with body }
        | Stmt.If r ->
          let then_ = rewrite_first p f r.then_ in
          if then_ != r.then_ then Stmt.If { r with then_ }
          else
            let else_ = rewrite_first p f r.else_ in
            if else_ == r.else_ then s else Stmt.If { r with else_ }
        | Stmt.Let _ | Stmt.Assign _ | Stmt.Store _ | Stmt.Alloc _ | Stmt.Memcpy _
        | Stmt.Intrinsic _ | Stmt.Sync | Stmt.Annot _ -> s
      in
      if s' != s then s' :: rest
      else
        let rest' = rewrite_first p f rest in
        if rest' == rest then block else s :: rest'
    end

let rewrite_loop var f block =
  let block' =
    rewrite_first
      (function Stmt.For r -> String.equal r.var var | _ -> false)
      (function
        | Stmt.For r -> f ~var:r.var ~lo:r.lo ~extent:r.extent ~kind:r.kind ~body:r.body
        | _ -> assert false)
      block
  in
  if block' == block then None else Some block'

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
