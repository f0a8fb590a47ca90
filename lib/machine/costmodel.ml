open Xpiler_ir

type features = {
  scalar_flops : float;
  vector_elems : float;
  tensor_macs : float;
  offchip_bytes : float;
  onchip_bytes : float;
  blocks : int;
  threads : int;
  pipelined : bool;
  launches : int;
}

type estimate = {
  seconds : float;
  compute_seconds : float;
  memory_seconds : float;
  features : features;
}

type acc = {
  mutable f_scalar : float;
  mutable f_vector : float;
  mutable f_tensor : float;
  mutable b_off : float;
  mutable b_on : float;
  mutable blocks : int;
  mutable threads : int;
  mutable pipelined : bool;
}

let is_offchip = function Scope.Global | Scope.Host -> true | _ -> false

(* count arithmetic operators in a value expression *)
let rec flop_count (e : Expr.t) =
  match e with
  | Int _ | Float _ | Var _ -> 0.0
  | Load (_, i) -> flop_count i
  | Binop (_, l, r) -> 1.0 +. flop_count l +. flop_count r
  | Unop ((Exp | Log | Sqrt | Rsqrt | Tanh | Erf | Recip), x) -> 8.0 +. flop_count x
  | Unop (_, x) -> 1.0 +. flop_count x
  | Select (c, t, f) -> 1.0 +. flop_count c +. flop_count t +. flop_count f
  | Cast (_, x) -> flop_count x

(* bytes of off-chip / on-chip traffic implied by the loads in [e] *)
let load_bytes scope_of (e : Expr.t) =
  Expr.fold
    (fun (off, on) e ->
      match e with
      | Expr.Load (b, _) ->
        let sz =
          match scope_of b with
          | Some (s, dt) -> (is_offchip s, float_of_int (Dtype.size_in_bytes dt))
          | None -> (true, 4.0)
        in
        (match sz with
        | true, bytes -> (off +. bytes, on)
        | false, bytes -> (off, on +. bytes))
      | _ -> (off, on))
    (0.0, 0.0) e

let extract_features (k : Kernel.t) ~shapes =
  let acc =
    { f_scalar = 0.0; f_vector = 0.0; f_tensor = 0.0; b_off = 0.0; b_on = 0.0;
      blocks = 1; threads = 1; pipelined = false }
  in
  (* buffer scope/dtype environment *)
  let buf_info = Hashtbl.create 16 in
  List.iter
    (fun (p : Kernel.param) ->
      if p.is_buffer then Hashtbl.replace buf_info p.name (Scope.Global, p.dtype))
    k.Kernel.params;
  Stmt.iter
    (fun s ->
      match s with
      | Stmt.Alloc r -> Hashtbl.replace buf_info r.buf (r.scope, r.dtype)
      | _ -> ())
    k.Kernel.body;
  let scope_of b = Hashtbl.find_opt buf_info b in
  (* integer environment for trip counts *)
  let env = Hashtbl.create 16 in
  List.iter (fun (n, v) -> Hashtbl.replace env n v) shapes;
  let eval_opt e =
    try Some (Expr.eval_int (fun x -> Hashtbl.find env x) e) with _ -> None
  in
  let extent_of e = match eval_opt e with Some n -> max n 0 | None -> 8 in
  let byte_size b = match scope_of b with Some (_, dt) -> float_of_int (Dtype.size_in_bytes dt) | None -> 4.0 in
  let charge_loads trips e =
    let off, on = load_bytes scope_of e in
    acc.b_off <- acc.b_off +. (trips *. off);
    acc.b_on <- acc.b_on +. (trips *. on)
  in
  let rec walk trips block =
    List.iter
      (fun stmt ->
        match stmt with
        | Stmt.For r ->
          let n = extent_of r.extent in
          (match r.kind with
          | Stmt.Parallel (Axis.Block_x | Axis.Block_y | Axis.Block_z | Axis.Task_id | Axis.Cluster_id) ->
            acc.blocks <- acc.blocks * max n 1
          | Stmt.Parallel (Axis.Thread_x | Axis.Thread_y | Axis.Thread_z | Axis.Core_id) ->
            acc.threads <- acc.threads * max n 1
          | Stmt.Pipelined -> acc.pipelined <- true
          | Stmt.Serial | Stmt.Unrolled | Stmt.Vectorized -> ());
          (* loop overhead: one integer op per iteration *)
          acc.f_scalar <- acc.f_scalar +. (trips *. float_of_int n *. 0.25);
          walk (trips *. float_of_int n) r.body
        | Stmt.Let { value; _ } | Stmt.Assign { value; _ } ->
          acc.f_scalar <- acc.f_scalar +. (trips *. flop_count value);
          charge_loads trips value
        | Stmt.Store r ->
          acc.f_scalar <- acc.f_scalar +. (trips *. flop_count r.value);
          charge_loads trips r.value;
          let bytes = byte_size r.buf in
          (match scope_of r.buf with
          | Some (s, _) when is_offchip s -> acc.b_off <- acc.b_off +. (trips *. bytes)
          | _ -> acc.b_on <- acc.b_on +. (trips *. bytes))
        | Stmt.If r ->
          charge_loads trips r.cond;
          walk trips r.then_;
          walk (trips *. 0.25) r.else_
        | Stmt.Memcpy r ->
          let n = float_of_int (extent_of r.len) in
          let offchip buf =
            match scope_of buf with Some (s, _) -> is_offchip s | None -> true
          in
          let charge buf =
            let total = trips *. n *. byte_size buf in
            if offchip buf then acc.b_off <- acc.b_off +. total
            else acc.b_on <- acc.b_on +. total
          in
          charge r.dst.buf;
          charge r.src.buf
        | Stmt.Intrinsic i ->
          let p n = match List.nth_opt i.params n with Some e -> float_of_int (extent_of e) | None -> 1.0 in
          (match i.op with
          | Intrin.Mma | Intrin.Mlp -> acc.f_tensor <- acc.f_tensor +. (trips *. p 0 *. p 1 *. p 2)
          | Intrin.Conv2d ->
            acc.f_tensor <- acc.f_tensor +. (trips *. p 0 *. p 1 *. p 2 *. p 3 *. p 4 *. p 5)
          | Intrin.Dp4a -> acc.f_tensor <- acc.f_tensor +. (trips *. p 0)
          | _ -> acc.f_vector <- acc.f_vector +. (trips *. p 0));
          (* intrinsic operands stream through on-chip memory *)
          acc.b_on <- acc.b_on +. (trips *. p 0 *. 4.0)
        | Stmt.Sync -> acc.f_scalar <- acc.f_scalar +. (trips *. 2.0)
        | Stmt.Alloc _ | Stmt.Annot _ -> ())
      block
  in
  walk 1.0 k.Kernel.body;
  { scalar_flops = acc.f_scalar;
    vector_elems = acc.f_vector;
    tensor_macs = acc.f_tensor;
    offchip_bytes = acc.b_off;
    onchip_bytes = acc.b_on;
    blocks = acc.blocks;
    threads = acc.threads;
    pipelined = acc.pipelined;
    launches = 1
  }

let estimate (p : Platform.t) k ~shapes =
  Xpiler_obs.Trace.count "costmodel.evals";
  let f = extract_features k ~shapes in
  let c = p.Platform.cost in
  let clock = c.clock_ghz *. 1e9 in
  (* effective parallel resources *)
  let blocks = max f.blocks 1 and threads = max f.threads 1 in
  let cores_used, occupancy =
    match p.Platform.id with
    | Platform.Cuda | Platform.Hip ->
      let cores = min c.num_cores blocks in
      let occ = Float.min 1.0 (float_of_int threads /. 256.0) in
      (float_of_int cores, Float.max occ 0.03125)
    | Platform.Bang ->
      (float_of_int (min c.num_cores (blocks * threads)), 1.0)
    | Platform.Vnni ->
      (* the harness OpenMP-parallelizes CPU kernels (as oneDNN does), so
         core count is a property of the machine, not the kernel *)
      ignore threads;
      (float_of_int c.num_cores, 1.0)
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
  (* roofline balance in [0, 1]: 1 = pure compute-bound, 0 = pure memory-bound *)
  if compute +. memory > 0.0 then
    Xpiler_obs.Trace.observe "costmodel.balance" (compute /. (compute +. memory));
  { seconds; compute_seconds = compute; memory_seconds = memory; features = f }

let throughput p k ~shapes =
  (* the tuning reward: inverse modelled time (scaled to an ops/s-like
     magnitude). Counting executed operations instead would reward padding
     the schedule with overhead work. *)
  let e = estimate p k ~shapes in
  1e9 /. e.seconds

(* ---- cheap admissible bound --------------------------------------------

   [throughput_bound] is a branch-and-bound pruning oracle: an upper bound
   on [throughput] computed by a structural walk that skips every
   per-expression fold ([flop_count] and [load_bytes] — the dominant cost of
   [extract_features]). Soundness argument, term by term against [estimate]:

   - blocks / threads / pipelined / launches are structural and computed
     identically, so the rates and occupancy match exactly;
   - scalar flops are under-counted (loop overhead and syncs only — no
     expression arithmetic), vector/tensor work is counted exactly, so
     [compute' <= compute];
   - traffic is under-counted (stores, memcpys and intrinsic streaming only
     — no loads), with the same scope attribution, so [memory' <= memory];
   - the body time is lower-bounded by [max compute' memory']: the
     unpipelined body is [compute + memory >= max], and the pipelined body
     is [max + 0.15 * min >= max].

   Hence [bound_seconds <= seconds] and the returned throughput is [>=] the
   true modelled throughput on every kernel (fuzzed in test_tuning.ml).
   Emits no trace events: the tuner emits its pruning counts itself, so
   the bound must be observably silent. *)
let throughput_bound (p : Platform.t) (k : Kernel.t) ~shapes =
  let acc =
    { f_scalar = 0.0; f_vector = 0.0; f_tensor = 0.0; b_off = 0.0; b_on = 0.0;
      blocks = 1; threads = 1; pipelined = false }
  in
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
  let env = Hashtbl.create 16 in
  List.iter (fun (n, v) -> Hashtbl.replace env n v) shapes;
  let eval_opt e =
    try Some (Expr.eval_int (fun x -> Hashtbl.find env x) e) with _ -> None
  in
  let extent_of e = match eval_opt e with Some n -> max n 0 | None -> 8 in
  let byte_size b =
    match scope_of b with Some (_, dt) -> float_of_int (Dtype.size_in_bytes dt) | None -> 4.0
  in
  let charge_bytes trips buf =
    let total = trips *. byte_size buf in
    match scope_of buf with
    | Some (s, _) when not (is_offchip s) -> acc.b_on <- acc.b_on +. total
    | Some _ -> acc.b_off <- acc.b_off +. total
    | None -> acc.b_off <- acc.b_off +. total
  in
  let rec walk trips block =
    List.iter
      (fun stmt ->
        match stmt with
        | Stmt.For r ->
          let n = extent_of r.extent in
          (match r.kind with
          | Stmt.Parallel (Axis.Block_x | Axis.Block_y | Axis.Block_z | Axis.Task_id | Axis.Cluster_id) ->
            acc.blocks <- acc.blocks * max n 1
          | Stmt.Parallel (Axis.Thread_x | Axis.Thread_y | Axis.Thread_z | Axis.Core_id) ->
            acc.threads <- acc.threads * max n 1
          | Stmt.Pipelined -> acc.pipelined <- true
          | Stmt.Serial | Stmt.Unrolled | Stmt.Vectorized -> ());
          acc.f_scalar <- acc.f_scalar +. (trips *. float_of_int n *. 0.25);
          walk (trips *. float_of_int n) r.body
        | Stmt.Let _ | Stmt.Assign _ -> ()
        | Stmt.Store r -> charge_bytes trips r.buf
        | Stmt.If r ->
          walk trips r.then_;
          walk (trips *. 0.25) r.else_
        | Stmt.Memcpy r ->
          let n = float_of_int (extent_of r.len) in
          charge_bytes (trips *. n) r.dst.buf;
          charge_bytes (trips *. n) r.src.buf
        | Stmt.Intrinsic i ->
          let p n = match List.nth_opt i.params n with Some e -> float_of_int (extent_of e) | None -> 1.0 in
          (match i.op with
          | Intrin.Mma | Intrin.Mlp -> acc.f_tensor <- acc.f_tensor +. (trips *. p 0 *. p 1 *. p 2)
          | Intrin.Conv2d ->
            acc.f_tensor <- acc.f_tensor +. (trips *. p 0 *. p 1 *. p 2 *. p 3 *. p 4 *. p 5)
          | Intrin.Dp4a -> acc.f_tensor <- acc.f_tensor +. (trips *. p 0)
          | _ -> acc.f_vector <- acc.f_vector +. (trips *. p 0));
          acc.b_on <- acc.b_on +. (trips *. p 0 *. 4.0)
        | Stmt.Sync -> acc.f_scalar <- acc.f_scalar +. (trips *. 2.0)
        | Stmt.Alloc _ | Stmt.Annot _ -> ())
      block
  in
  walk 1.0 k.Kernel.body;
  let c = p.Platform.cost in
  let clock = c.clock_ghz *. 1e9 in
  let blocks = max acc.blocks 1 and threads = max acc.threads 1 in
  let cores_used, occupancy =
    match p.Platform.id with
    | Platform.Cuda | Platform.Hip ->
      let cores = min c.num_cores blocks in
      let occ = Float.min 1.0 (float_of_int threads /. 256.0) in
      (float_of_int cores, Float.max occ 0.03125)
    | Platform.Bang -> (float_of_int (min c.num_cores (blocks * threads)), 1.0)
    | Platform.Vnni ->
      ignore threads;
      (float_of_int c.num_cores, 1.0)
  in
  let scalar_rate = cores_used *. c.scalar_flops_per_cycle *. occupancy *. clock in
  let vector_rate = cores_used *. float_of_int c.vector_lanes *. clock in
  let tensor_rate = cores_used *. c.tensor_macs_per_cycle *. clock in
  let compute =
    (acc.f_scalar /. scalar_rate) +. (acc.f_vector /. vector_rate)
    +. (acc.f_tensor /. tensor_rate)
  in
  let memory =
    (acc.b_off /. (c.dram_gbps *. 1e9)) +. (acc.b_on /. (c.onchip_gbps *. 1e9))
  in
  let bound_seconds =
    Float.max compute memory +. (c.launch_overhead_us *. 1e-6)
  in
  if bound_seconds <= 0.0 then infinity else 1e9 /. bound_seconds
