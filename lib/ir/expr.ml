type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Min
  | Max
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type unop = Neg | Not | Exp | Log | Sqrt | Rsqrt | Tanh | Erf | Abs | Recip | Floor

type t =
  | Int of int
  | Float of float
  | Var of string
  | Load of string * t
  | Binop of binop * t * t
  | Unop of unop * t
  | Select of t * t * t
  | Cast of Dtype.t * t

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Min -> "min"
  | Max -> "max"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "&&"
  | Or -> "||"

let unop_to_string = function
  | Neg -> "-"
  | Not -> "!"
  | Exp -> "expf"
  | Log -> "logf"
  | Sqrt -> "sqrtf"
  | Rsqrt -> "rsqrtf"
  | Tanh -> "tanhf"
  | Erf -> "erff"
  | Abs -> "fabsf"
  | Recip -> "__frcp"
  | Floor -> "floorf"

let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Int x, Int y -> x = y
  | Float x, Float y ->
    (* bit patterns, not [Float.equal]: 0.0 and -0.0 are distinct literals
       ([1.0 /. -0.0] is -inf), and memo tables key kernels on [equal] *)
    Int64.bits_of_float x = Int64.bits_of_float y
  | Var x, Var y -> String.equal x y
  | Load (b1, i1), Load (b2, i2) -> String.equal b1 b2 && equal i1 i2
  | Binop (o1, l1, r1), Binop (o2, l2, r2) -> o1 = o2 && equal l1 l2 && equal r1 r2
  | Unop (o1, e1), Unop (o2, e2) -> o1 = o2 && equal e1 e2
  | Select (c1, t1, f1), Select (c2, t2, f2) -> equal c1 c2 && equal t1 t2 && equal f1 f2
  | Cast (d1, e1), Cast (d2, e2) -> Dtype.equal d1 d2 && equal e1 e2
  | (Int _ | Float _ | Var _ | Load _ | Binop _ | Unop _ | Select _ | Cast _), _ -> false

let compare = Stdlib.compare

(* Full-depth structural hashing: the polymorphic [Hashtbl.hash] stops after
   a bounded number of nodes, which collides badly on expressions that differ
   only deep inside an index computation. Paired with [equal] this keys the
   evaluation engine's memo tables. *)
let hash_comb h x = ((h * 65599) + x) land max_int

let rec hash_fold h = function
  | Int n -> hash_comb (hash_comb h 3) n
  | Float f -> hash_comb (hash_comb h 5) (Hashtbl.hash f)
  | Var x -> hash_comb (hash_comb h 7) (Hashtbl.hash x)
  | Load (b, i) -> hash_fold (hash_comb (hash_comb h 11) (Hashtbl.hash b)) i
  | Binop (op, l, r) ->
    hash_fold (hash_fold (hash_comb (hash_comb h 13) (Hashtbl.hash op)) l) r
  | Unop (op, x) -> hash_fold (hash_comb (hash_comb h 17) (Hashtbl.hash op)) x
  | Select (c, t, f) -> hash_fold (hash_fold (hash_fold (hash_comb h 19) c) t) f
  | Cast (d, x) -> hash_fold (hash_comb (hash_comb h 23) (Hashtbl.hash d)) x

let hash e = hash_fold 0 e

(* children are mapped right to left, and a node whose children come back
   physically equal is kept as is, so an unchanged subtree stays shared *)
let rec map f e =
  let e' =
    match e with
    | Int _ | Float _ | Var _ -> e
    | Load (b, i) ->
      let i' = map f i in
      if i' == i then e else Load (b, i')
    | Binop (op, l, r) ->
      let r' = map f r in
      let l' = map f l in
      if l' == l && r' == r then e else Binop (op, l', r')
    | Unop (op, x) ->
      let x' = map f x in
      if x' == x then e else Unop (op, x')
    | Select (c, t, fe) ->
      let fe' = map f fe in
      let t' = map f t in
      let c' = map f c in
      if c' == c && t' == t && fe' == fe then e else Select (c', t', fe')
    | Cast (d, x) ->
      let x' = map f x in
      if x' == x then e else Cast (d, x')
  in
  match f e' with Some e'' -> e'' | None -> e'

let rec fold f acc e =
  let acc = f acc e in
  match e with
  | Int _ | Float _ | Var _ -> acc
  | Load (_, i) -> fold f acc i
  | Binop (_, l, r) -> fold f (fold f acc l) r
  | Unop (_, x) -> fold f acc x
  | Select (c, t, fe) -> fold f (fold f (fold f acc c) t) fe
  | Cast (_, x) -> fold f acc x

let dedup = Xpiler_util.Listx.dedup

let free_vars e =
  fold (fun acc e -> match e with Var x -> x :: acc | _ -> acc) [] e
  |> List.rev |> dedup

let buffers_read e =
  fold (fun acc e -> match e with Load (b, _) -> b :: acc | _ -> acc) [] e
  |> List.rev |> dedup

let subst_var x v e = map (function Var y when String.equal x y -> Some v | _ -> None) e

let rename_buffer ~old_name ~new_name e =
  map
    (function
      | Load (b, i) when String.equal b old_name -> Some (Load (new_name, i))
      | _ -> None)
    e

let rec contains_load b = function
  | Load (b', i) -> String.equal b b' || contains_load b i
  | Int _ | Float _ | Var _ -> false
  | Binop (_, l, r) -> contains_load b l || contains_load b r
  | Unop (_, e) | Cast (_, e) -> contains_load b e
  | Select (c, t, f) -> contains_load b c || contains_load b t || contains_load b f

let rec contains_var x = function
  | Var y -> String.equal x y
  | Int _ | Float _ -> false
  | Load (_, i) -> contains_var x i
  | Binop (_, l, r) -> contains_var x l || contains_var x r
  | Unop (_, e) | Cast (_, e) -> contains_var x e
  | Select (c, t, f) -> contains_var x c || contains_var x t || contains_var x f

let rec eval_int env = function
  | Int n -> n
  | Float _ -> failwith "Expr.eval_int: float literal"
  | Var x -> env x
  | Load _ -> failwith "Expr.eval_int: buffer load"
  | Cast (_, e) -> eval_int env e
  | Unop (Neg, e) -> -eval_int env e
  | Unop (Not, e) -> if eval_int env e = 0 then 1 else 0
  | Unop ((Exp | Log | Sqrt | Rsqrt | Tanh | Erf | Abs | Recip | Floor), _) ->
    failwith "Expr.eval_int: float unop"
  | Select (c, t, f) -> if eval_int env c <> 0 then eval_int env t else eval_int env f
  | Binop (op, l, r) -> (
    let a = eval_int env l and b = eval_int env r in
    match op with
    | Add -> a + b
    | Sub -> a - b
    | Mul -> a * b
    | Div ->
      if b = 0 then failwith "Expr.eval_int: division by zero"
      else a / b
    | Mod -> if b = 0 then failwith "Expr.eval_int: modulo by zero" else a mod b
    | Min -> min a b
    | Max -> max a b
    | Eq -> if a = b then 1 else 0
    | Ne -> if a <> b then 1 else 0
    | Lt -> if a < b then 1 else 0
    | Le -> if a <= b then 1 else 0
    | Gt -> if a > b then 1 else 0
    | Ge -> if a >= b then 1 else 0
    | And -> if a <> 0 && b <> 0 then 1 else 0
    | Or -> if a <> 0 || b <> 0 then 1 else 0)

(* --- Simplification --------------------------------------------------- *)

let fold_binop op a b =
  match op with
  | Add -> Some (a + b)
  | Sub -> Some (a - b)
  | Mul -> Some (a * b)
  | Div -> if b = 0 then None else Some (a / b)
  | Mod -> if b = 0 then None else Some (a mod b)
  | Min -> Some (min a b)
  | Max -> Some (max a b)
  | Eq -> Some (if a = b then 1 else 0)
  | Ne -> Some (if a <> b then 1 else 0)
  | Lt -> Some (if a < b then 1 else 0)
  | Le -> Some (if a <= b then 1 else 0)
  | Gt -> Some (if a > b then 1 else 0)
  | Ge -> Some (if a >= b then 1 else 0)
  | And -> Some (if a <> 0 && b <> 0 then 1 else 0)
  | Or -> Some (if a <> 0 || b <> 0 then 1 else 0)

(* the value of a comparison or a logical operator is 0 or 1 *)
let is_boolean = function
  | Binop ((Eq | Ne | Lt | Le | Gt | Ge | And | Or), _, _) | Unop (Not, _) -> true
  | _ -> false

let simplify_node = function
  | Binop (op, Int a, Int b) -> Option.map (fun n -> Int n) (fold_binop op a b)
  | Binop (Add, x, Int 0) | Binop (Add, Int 0, x) -> Some x
  | Binop (Sub, x, Int 0) -> Some x
  | Binop (Mul, _, Int 0) | Binop (Mul, Int 0, _) -> Some (Int 0)
  | Binop (Mul, x, Int 1) | Binop (Mul, Int 1, x) -> Some x
  | Binop (Div, x, Int 1) -> Some x
  | Binop (Div, Int 0, _) -> Some (Int 0)
  (* (x * a) / b when b divides a: byte/element conversions in memcpy *)
  | Binop (Div, Binop (Mul, x, Int a), Int b) when b > 0 && a mod b = 0 ->
    Some (if a = b then x else Binop (Mul, x, Int (a / b)))
  | Binop (Mod, _, Int 1) -> Some (Int 0)
  (* [x && 1] is [x] only when [x] is already 0 or 1: [5 && 1] is 1 *)
  | (Binop (And, x, Int 1) | Binop (And, Int 1, x)) when is_boolean x -> Some x
  | Binop (And, _, Int 0) | Binop (And, Int 0, _) -> Some (Int 0)
  | (Binop (Or, x, Int 0) | Binop (Or, Int 0, x)) when is_boolean x -> Some x
  (* re-associate (x + c1) + c2 -> x + (c1+c2) *)
  | Binop (Add, Binop (Add, x, Int c1), Int c2) -> Some (Binop (Add, x, Int (c1 + c2)))
  | Binop (Mul, Binop (Mul, x, Int c1), Int c2) -> Some (Binop (Mul, x, Int (c1 * c2)))
  (* x - x -> 0 for variables *)
  | Binop (Sub, Var a, Var b) when String.equal a b -> Some (Int 0)
  | Select (Int c, t, f) -> Some (if c <> 0 then t else f)
  | Unop (Neg, Int n) -> Some (Int (-n))
  | Unop (Neg, Float f) -> Some (Float (-.f))
  | Unop (Not, Int n) -> Some (Int (if n = 0 then 1 else 0))
  (* a float cast keeps its value's type: [(float)3 / 2] is 1.5, [3 / 2] is 1 *)
  | Cast (d, Int n) when Dtype.is_float d -> Some (Float (float_of_int n))
  | Cast (_, (Int _ as e)) -> Some e
  | _ -> None

let rec simplify e =
  let e' = map simplify_node e in
  if equal e e' then e else simplify e'

(* --- Printing ---------------------------------------------------------- *)

let precedence = function
  | Or -> 1
  | And -> 2
  | Eq | Ne -> 3
  | Lt | Le | Gt | Ge -> 4
  | Add | Sub -> 5
  | Mul | Div | Mod -> 6
  | Min | Max -> 10 (* printed as calls *)

let float_lit f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1ff" f
  else Printf.sprintf "%gf" f

let rec to_str prec e =
  match e with
  | Int n -> string_of_int n
  | Float f -> float_lit f
  | Var x -> x
  | Load (b, i) -> Printf.sprintf "%s[%s]" b (to_str 0 i)
  | Binop (((Min | Max) as op), l, r) ->
    let name = match op with Min -> "min" | _ -> "max" in
    Printf.sprintf "%s(%s, %s)" name (to_str 0 l) (to_str 0 r)
  | Binop (op, l, r) ->
    let p = precedence op in
    let s = Printf.sprintf "%s %s %s" (to_str p l) (binop_to_string op) (to_str (p + 1) r) in
    if p < prec then "(" ^ s ^ ")" else s
  | Unop (((Neg | Not) as op), x) ->
    let s = unop_to_string op ^ to_str 9 x in
    if prec > 8 then "(" ^ s ^ ")" else s
  | Unop (op, x) -> Printf.sprintf "%s(%s)" (unop_to_string op) (to_str 0 x)
  | Select (c, t, f) ->
    let s = Printf.sprintf "%s ? %s : %s" (to_str 1 c) (to_str 1 t) (to_str 1 f) in
    if prec > 0 then "(" ^ s ^ ")" else s
  | Cast (d, x) -> Printf.sprintf "(%s)%s" (Dtype.to_string d) (to_str 9 x)

let to_string e = to_str 0 e
let pp fmt e = Format.pp_print_string fmt (to_string e)

module Infix = struct
  let int n = Int n
  let flt f = Float f
  let v x = Var x
  let ( + ) a b = Binop (Add, a, b)
  let ( - ) a b = Binop (Sub, a, b)
  let ( * ) a b = Binop (Mul, a, b)
  let ( / ) a b = Binop (Div, a, b)
  let ( % ) a b = Binop (Mod, a, b)
  let ( < ) a b = Binop (Lt, a, b)
  let ( <= ) a b = Binop (Le, a, b)
  let ( > ) a b = Binop (Gt, a, b)
  let ( >= ) a b = Binop (Ge, a, b)
  let ( = ) a b = Binop (Eq, a, b)
  let ( && ) a b = Binop (And, a, b)
  let ( || ) a b = Binop (Or, a, b)
  let load b i = Load (b, i)
end
