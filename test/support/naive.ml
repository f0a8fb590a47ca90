(* Reference implementations kept as test oracles for code that was made
   faster: each must agree with the library's version exactly, the way
   [Solver.solve_naive] backs the incremental solver. *)

open Xpiler_ir
open Xpiler_machine

(* [Stmt.simplify] as it was written over a whole-subtree expression map:
   a statement at loop depth d has its expressions simplified d + 1 times *)
let rec map_exprs_deep f (stmt : Stmt.t) : Stmt.t =
  match Stmt.map_exprs f stmt with
  | Stmt.For r -> Stmt.For { r with body = List.map (map_exprs_deep f) r.body }
  | Stmt.If r ->
    Stmt.If
      { r with
        then_ = List.map (map_exprs_deep f) r.then_;
        else_ = List.map (map_exprs_deep f) r.else_
      }
  | s -> s

let stmt_simplify block =
  let rec go block =
    List.concat_map
      (fun stmt ->
        let stmt = map_exprs_deep Expr.simplify stmt in
        match stmt with
        | Stmt.If { cond = Expr.Int 0; else_; _ } -> go else_
        | Stmt.If { cond = Expr.Int _; then_; _ } -> go then_
        | Stmt.If r -> [ Stmt.If { r with then_ = go r.then_; else_ = go r.else_ } ]
        | Stmt.For { extent = Expr.Int n; _ } when n <= 0 -> []
        | Stmt.For r -> [ Stmt.For { r with body = go r.body } ]
        | _ -> [ stmt ])
      block
  in
  go block

(* [Costmodel.estimate] as it was written before the walk stopped
   allocating: a [Hashtbl] of buffer scopes, an [Expr.fold] per expression
   and a closure per helper, with the trip count passed down as a float *)
let estimate (p : Platform.t) (k : Kernel.t) ~shapes : Costmodel.estimate =
  let f_scalar = ref 0.0 and f_vector = ref 0.0 and f_tensor = ref 0.0 in
  let b_off = ref 0.0 and b_on = ref 0.0 in
  let blocks = ref 1 and threads = ref 1 and pipelined = ref false in
  let is_offchip = function Scope.Global | Scope.Host -> true | _ -> false in
  let buf_info = Hashtbl.create 16 in
  List.iter
    (fun (prm : Kernel.param) ->
      if prm.is_buffer then Hashtbl.replace buf_info prm.name (Scope.Global, prm.dtype))
    k.Kernel.params;
  Stmt.iter
    (fun s ->
      match s with
      | Stmt.Alloc r -> Hashtbl.replace buf_info r.buf (r.scope, r.dtype)
      | _ -> ())
    k.Kernel.body;
  let scope_of b = Hashtbl.find_opt buf_info b in
  let rec flop_count (e : Expr.t) =
    match e with
    | Int _ | Float _ | Var _ -> 0
    | Load (_, i) -> flop_count i
    | Binop (_, l, r) -> 1 + flop_count l + flop_count r
    | Unop ((Exp | Log | Sqrt | Rsqrt | Tanh | Erf | Recip), x) -> 8 + flop_count x
    | Unop (_, x) -> 1 + flop_count x
    | Select (c, t, f) -> 1 + flop_count c + flop_count t + flop_count f
    | Cast (_, x) -> flop_count x
  in
  let load_bytes (e : Expr.t) =
    let off = ref 0 and on = ref 0 in
    Expr.fold
      (fun () e ->
        match e with
        | Expr.Load (b, _) -> (
          match scope_of b with
          | Some (s, dt) ->
            let r = if is_offchip s then off else on in
            r := !r + Dtype.size_in_bytes dt
          | None -> off := !off + 4)
        | _ -> ())
      () e;
    (!off, !on)
  in
  let env = Hashtbl.create 16 in
  List.iter (fun (n, v) -> Hashtbl.replace env n v) shapes;
  let extent_of e =
    match Expr.eval_int (Hashtbl.find env) e with n -> max n 0 | exception _ -> 8
  in
  let byte_size b =
    match scope_of b with Some (_, dt) -> float_of_int (Dtype.size_in_bytes dt) | None -> 4.0
  in
  let charge_loads trips e =
    let off, on = load_bytes e in
    b_off := !b_off +. (trips *. float_of_int off);
    b_on := !b_on +. (trips *. float_of_int on)
  in
  let rec walk trips block =
    List.iter
      (fun stmt ->
        match stmt with
        | Stmt.For r ->
          let n = extent_of r.extent in
          (match r.kind with
          | Stmt.Parallel (Axis.Block_x | Axis.Block_y | Axis.Block_z | Axis.Task_id | Axis.Cluster_id) ->
            blocks := !blocks * max n 1
          | Stmt.Parallel (Axis.Thread_x | Axis.Thread_y | Axis.Thread_z | Axis.Core_id) ->
            threads := !threads * max n 1
          | Stmt.Pipelined -> pipelined := true
          | Stmt.Serial | Stmt.Unrolled | Stmt.Vectorized -> ());
          f_scalar := !f_scalar +. (trips *. float_of_int n *. 0.25);
          walk (trips *. float_of_int n) r.body
        | Stmt.Let { value; _ } | Stmt.Assign { value; _ } ->
          f_scalar := !f_scalar +. (trips *. float_of_int (flop_count value));
          charge_loads trips value
        | Stmt.Store r -> (
          f_scalar := !f_scalar +. (trips *. float_of_int (flop_count r.value));
          charge_loads trips r.value;
          let bytes = byte_size r.buf in
          match scope_of r.buf with
          | Some (s, _) when is_offchip s -> b_off := !b_off +. (trips *. bytes)
          | _ -> b_on := !b_on +. (trips *. bytes))
        | Stmt.If r ->
          charge_loads trips r.cond;
          walk trips r.then_;
          walk (trips *. 0.25) r.else_
        | Stmt.Memcpy r ->
          let n = float_of_int (extent_of r.len) in
          let charge buf =
            let total = trips *. n *. byte_size buf in
            match scope_of buf with
            | Some (s, _) when not (is_offchip s) -> b_on := !b_on +. total
            | _ -> b_off := !b_off +. total
          in
          charge r.dst.buf;
          charge r.src.buf
        | Stmt.Intrinsic i ->
          let p n =
            match List.nth_opt i.params n with Some e -> float_of_int (extent_of e) | None -> 1.0
          in
          (match i.op with
          | Intrin.Mma | Intrin.Mlp -> f_tensor := !f_tensor +. (trips *. p 0 *. p 1 *. p 2)
          | Intrin.Conv2d ->
            f_tensor := !f_tensor +. (trips *. p 0 *. p 1 *. p 2 *. p 3 *. p 4 *. p 5)
          | Intrin.Dp4a -> f_tensor := !f_tensor +. (trips *. p 0)
          | _ -> f_vector := !f_vector +. (trips *. p 0));
          b_on := !b_on +. (trips *. p 0 *. 4.0)
        | Stmt.Sync -> f_scalar := !f_scalar +. (trips *. 2.0)
        | Stmt.Alloc _ | Stmt.Annot _ -> ())
      block
  in
  walk 1.0 k.Kernel.body;
  let f : Costmodel.features =
    { scalar_flops = !f_scalar;
      vector_elems = !f_vector;
      tensor_macs = !f_tensor;
      offchip_bytes = !b_off;
      onchip_bytes = !b_on;
      blocks = !blocks;
      threads = !threads;
      pipelined = !pipelined;
      launches = 1
    }
  in
  let c = p.Platform.cost in
  let clock = c.clock_ghz *. 1e9 in
  let blocks = max f.blocks 1 and threads = max f.threads 1 in
  let cores_used, occupancy =
    match p.Platform.id with
    | Platform.Cuda | Platform.Hip ->
      let cores = min c.num_cores blocks in
      let occ = Float.min 1.0 (float_of_int threads /. 256.0) in
      (float_of_int cores, Float.max occ 0.03125)
    | Platform.Bang -> (float_of_int (min c.num_cores (blocks * threads)), 1.0)
    | Platform.Vnni -> (float_of_int c.num_cores, 1.0)
  in
  let scalar_rate = cores_used *. c.scalar_flops_per_cycle *. occupancy *. clock in
  let vector_rate = cores_used *. float_of_int c.vector_lanes *. clock in
  let tensor_rate = cores_used *. c.tensor_macs_per_cycle *. clock in
  let compute =
    (f.scalar_flops /. scalar_rate) +. (f.vector_elems /. vector_rate)
    +. (f.tensor_macs /. tensor_rate)
  in
  let memory =
    (f.offchip_bytes /. (c.dram_gbps *. 1e9)) +. (f.onchip_bytes /. (c.onchip_gbps *. 1e9))
  in
  let body =
    if f.pipelined then Float.max compute memory +. (0.15 *. Float.min compute memory)
    else compute +. memory
  in
  let seconds = body +. (c.launch_overhead_us *. 1e-6 *. float_of_int f.launches) in
  { seconds; compute_seconds = compute; memory_seconds = memory; features = f }
