type param = { name : string; dtype : Dtype.t; is_buffer : bool }

type t = {
  name : string;
  params : param list;
  launch : (Axis.t * int) list;
  body : Stmt.t list;
}

let make ~name ~params ?(launch = []) body = { name; params; launch; body }
let buffer_params t = List.filter (fun p -> p.is_buffer) t.params
let scalar_params t = List.filter (fun p -> not p.is_buffer) t.params
let param_names t = List.map (fun (p : param) -> p.name) t.params

let equal a b =
  String.equal a.name b.name && a.params = b.params && a.launch = b.launch
  && Stmt.equal_block a.body b.body

let hash t =
  let comb = Expr.hash_comb in
  let h = comb 0 (Hashtbl.hash t.name) in
  let h =
    List.fold_left
      (fun h (p : param) ->
        comb
          (comb (comb h (Hashtbl.hash p.name)) (Hashtbl.hash p.dtype))
          (if p.is_buffer then 1 else 0))
      h t.params
  in
  let h =
    List.fold_left (fun h (ax, n) -> comb (comb h (Hashtbl.hash ax)) n) (comb h 3) t.launch
  in
  Stmt.hash_fold_block h t.body

let axis_extent t ax = List.assoc_opt ax t.launch
let with_body t body = { t with body }
let with_launch t launch = { t with launch }
let total_parallelism t = List.fold_left (fun acc (_, n) -> acc * n) 1 t.launch
let map_body f t = { t with body = f t.body }

let to_string t =
  let param_str p =
    if p.is_buffer then Printf.sprintf "%s* %s" (Dtype.to_string p.dtype) p.name
    else Printf.sprintf "%s %s" (Dtype.to_string p.dtype) p.name
  in
  let launch_str =
    if t.launch = [] then ""
    else
      " /* launch: "
      ^ String.concat ", "
          (List.map (fun (ax, n) -> Printf.sprintf "%s<%d" (Axis.to_string ax) n) t.launch)
      ^ " */"
  in
  Printf.sprintf "kernel %s(%s)%s {\n%s}\n" t.name
    (String.concat ", " (List.map param_str t.params))
    launch_str
    (Stmt.to_string ~indent:1 t.body)
