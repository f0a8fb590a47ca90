type t =
  | Param of { nth : int; current : int }
  | Bound of { nth : int; var : string; current : int }
  | Index of { nth : int; buf : string }

let to_string = function
  | Param { nth; current } -> Printf.sprintf "param#%d (=%d)" nth current
  | Bound { nth; var; current } -> Printf.sprintf "bound#%d %s (=%d)" nth var current
  | Index { nth; buf } -> Printf.sprintf "index#%d -> %s" nth buf

let kind = function Param _ -> 0 | Bound _ -> 1 | Index _ -> 2
let nth = function Param { nth; _ } | Bound { nth; _ } | Index { nth; _ } -> nth
let same a b = kind a = kind b && nth a = nth b

(* a fresh numbering: called on statements in post-order, it returns each
   site statement's site and [None] for the rest *)
let numbering () =
  let counts = Array.make 3 0 in
  let next kind make =
    let nth = counts.(kind) in
    counts.(kind) <- nth + 1;
    Some (make nth)
  in
  function
  | Stmt.Intrinsic { params = Expr.Int current :: _; _ } | Stmt.Memcpy { len = Expr.Int current; _ }
    ->
    next 0 (fun nth -> Param { nth; current })
  | Stmt.For { var; extent = Expr.Int current; kind = Stmt.Serial; _ } ->
    next 1 (fun nth -> Bound { nth; var; current })
  | Stmt.Store { buf; _ } -> next 2 (fun nth -> Index { nth; buf })
  | _ -> None

let walk (k : Kernel.t) =
  let number = numbering () in
  let found = Array.make 3 [] in
  let rec block b = List.iter stmt b
  and stmt s =
    (match s with
    | Stmt.For r -> block r.body
    | Stmt.If r ->
      block r.then_;
      block r.else_
    | _ -> ());
    Option.iter (fun site -> found.(kind site) <- (site, s) :: found.(kind site)) (number s)
  in
  block k.Kernel.body;
  List.concat_map List.rev (Array.to_list found)

let stmt k site = List.find_map (fun (s, st) -> if same s site then Some st else None) (walk k)

let change value = function
  | Stmt.Intrinsic ({ params = _ :: rest; _ } as i) ->
    Stmt.Intrinsic { i with params = Expr.Int value :: rest }
  | Stmt.Memcpy r -> Stmt.Memcpy { r with len = Expr.Int value }
  | Stmt.For r -> Stmt.For { r with extent = Expr.Int value }
  | Stmt.Store r ->
    Stmt.Store { r with index = Linear.normalize (Expr.Binop (Expr.Add, r.index, Expr.Int value)) }
  | s -> s

(* [Stmt.map_block] calls back in the numbering's post-order *)
let set k site value =
  let number = numbering () in
  Kernel.map_body
    (Stmt.map_block (fun s ->
         match number s with Some n when same n site -> Some (change value s) | _ -> None))
    k
