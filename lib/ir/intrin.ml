type op =
  | Vec_add
  | Vec_sub
  | Vec_mul
  | Vec_max
  | Vec_min
  | Vec_exp
  | Vec_log
  | Vec_sqrt
  | Vec_recip
  | Vec_tanh
  | Vec_erf
  | Vec_relu
  | Vec_sigmoid
  | Vec_gelu
  | Vec_sign
  | Vec_scale
  | Vec_adds
  | Vec_fill
  | Vec_copy
  | Vec_reduce_sum
  | Vec_reduce_max
  | Mma
  | Mlp
  | Conv2d
  | Dp4a

type buf_ref = { buf : string; offset : Expr.t }
type t = { op : op; dst : buf_ref; srcs : buf_ref list; params : Expr.t list }

let op_name = function
  | Vec_add -> "vec_add"
  | Vec_sub -> "vec_sub"
  | Vec_mul -> "vec_mul"
  | Vec_max -> "vec_max"
  | Vec_min -> "vec_min"
  | Vec_exp -> "vec_exp"
  | Vec_log -> "vec_log"
  | Vec_sqrt -> "vec_sqrt"
  | Vec_recip -> "vec_recip"
  | Vec_tanh -> "vec_tanh"
  | Vec_erf -> "vec_erf"
  | Vec_relu -> "vec_relu"
  | Vec_sigmoid -> "vec_sigmoid"
  | Vec_gelu -> "vec_gelu"
  | Vec_sign -> "vec_sign"
  | Vec_scale -> "vec_scale"
  | Vec_adds -> "vec_adds"
  | Vec_fill -> "vec_fill"
  | Vec_copy -> "vec_copy"
  | Vec_reduce_sum -> "vec_reduce_sum"
  | Vec_reduce_max -> "vec_reduce_max"
  | Mma -> "mma"
  | Mlp -> "mlp"
  | Conv2d -> "conv2d"
  | Dp4a -> "dp4a"

let equal_op (a : op) (b : op) = a = b

let arity = function
  | Vec_add | Vec_sub | Vec_mul | Vec_max | Vec_min -> 2
  | Vec_exp | Vec_log | Vec_sqrt | Vec_recip | Vec_tanh | Vec_erf -> 1
  | Vec_relu | Vec_sigmoid | Vec_gelu | Vec_sign -> 1
  | Vec_scale | Vec_adds | Vec_copy -> 1
  | Vec_fill -> 0
  | Vec_reduce_sum | Vec_reduce_max -> 1
  | Mma | Mlp -> 2
  | Conv2d -> 2
  | Dp4a -> 2

let param_count = function
  | Vec_add | Vec_sub | Vec_mul | Vec_max | Vec_min | Vec_exp | Vec_log | Vec_sqrt
  | Vec_recip | Vec_tanh | Vec_erf | Vec_relu | Vec_sigmoid | Vec_gelu | Vec_sign
  | Vec_copy | Vec_reduce_sum | Vec_reduce_max | Dp4a -> 1
  | Vec_scale | Vec_adds | Vec_fill -> 2
  | Mma | Mlp -> 3
  | Conv2d -> 7

let is_vector = function
  | Vec_add | Vec_sub | Vec_mul | Vec_max | Vec_min | Vec_exp | Vec_log | Vec_sqrt
  | Vec_recip | Vec_tanh | Vec_erf | Vec_relu | Vec_sigmoid | Vec_gelu | Vec_sign
  | Vec_scale | Vec_adds | Vec_fill | Vec_copy
  | Vec_reduce_sum | Vec_reduce_max -> true
  | Mma | Mlp | Conv2d | Dp4a -> false

let is_matrix = function
  | Mma | Mlp | Conv2d -> true
  | _ -> false

let equal a b =
  a.op = b.op
  && String.equal a.dst.buf b.dst.buf
  && Expr.equal a.dst.offset b.dst.offset
  && List.length a.srcs = List.length b.srcs
  && List.for_all2
       (fun (x : buf_ref) (y : buf_ref) ->
         String.equal x.buf y.buf && Expr.equal x.offset y.offset)
       a.srcs b.srcs
  && List.length a.params = List.length b.params
  && List.for_all2 Expr.equal a.params b.params

let hash_fold h t =
  let comb = Expr.hash_comb in
  let href h (r : buf_ref) = Expr.hash_fold (comb h (Hashtbl.hash r.buf)) r.offset in
  let h = comb h (Hashtbl.hash t.op) in
  let h = href h t.dst in
  let h = List.fold_left href (comb h 3) t.srcs in
  List.fold_left Expr.hash_fold (comb h 5) t.params

let map_exprs f t =
  { t with
    dst = { t.dst with offset = f t.dst.offset };
    srcs = List.map (fun (r : buf_ref) -> { r with offset = f r.offset }) t.srcs;
    params = List.map f t.params
  }

let buffers t =
  Xpiler_util.Listx.dedup (t.dst.buf :: List.map (fun (r : buf_ref) -> r.buf) t.srcs)

let to_string t =
  let ref_str (r : buf_ref) =
    match r.offset with
    | Expr.Int 0 -> r.buf
    | off -> Printf.sprintf "%s + %s" r.buf (Expr.to_string off)
  in
  Printf.sprintf "%s(%s)" (op_name t.op)
    (String.concat ", "
       ((ref_str t.dst :: List.map ref_str t.srcs) @ List.map Expr.to_string t.params))
