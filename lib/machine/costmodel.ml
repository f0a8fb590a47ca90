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

(* One walk fills two sets of accumulators: the features' and, for
   [bound_and_throughput], the bound's own scalar and traffic terms (the
   vector and tensor work and the launch shape are the same in both). An
   all-float record is stored flat, so an update allocates nothing. *)
type acc = {
  mutable f_scalar : float;
  mutable f_vector : float;
  mutable f_tensor : float;
  mutable b_off : float;
  mutable b_on : float;
  mutable lb_scalar : float;
  mutable lb_off : float;
  mutable lb_on : float;
}

let is_offchip = function Scope.Global | Scope.Host -> true | _ -> false

(* Per-expression counts are whole numbers, so they are summed as ints:
   exact, in any order, and without a boxed float per node. *)

(* count arithmetic operators in a value expression *)
let rec flop_count (e : Expr.t) =
  match e with
  | Int _ | Float _ | Var _ -> 0
  | Load (_, i) -> flop_count i
  | Binop (_, l, r) -> 1 + flop_count l + flop_count r
  | Unop ((Exp | Log | Sqrt | Rsqrt | Tanh | Erf | Recip), x) -> 8 + flop_count x
  | Unop (_, x) -> 1 + flop_count x
  | Select (c, t, f) -> 1 + flop_count c + flop_count t + flop_count f
  | Cast (_, x) -> flop_count x

(* bytes of off-chip / on-chip traffic implied by the loads in [e] *)
let load_bytes scope_of (e : Expr.t) =
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

let walk_kernel (k : Kernel.t) ~shapes =
  let acc =
    { f_scalar = 0.0; f_vector = 0.0; f_tensor = 0.0; b_off = 0.0; b_on = 0.0;
      lb_scalar = 0.0; lb_off = 0.0; lb_on = 0.0 }
  in
  let blocks = ref 1 and threads = ref 1 and pipelined = ref false in
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
  (* integer environment for trip counts: the tuner passes no shapes, so
     it builds no table *)
  let lookup =
    match shapes with
    | [] -> fun _ -> raise Not_found
    | _ ->
      let env = Hashtbl.create 16 in
      List.iter (fun (n, v) -> Hashtbl.replace env n v) shapes;
      Hashtbl.find env
  in
  let extent_of e = match Expr.eval_int lookup e with n -> max n 0 | exception _ -> 8 in
  let byte_size b = match scope_of b with Some (_, dt) -> float_of_int (Dtype.size_in_bytes dt) | None -> 4.0 in
  let charge_loads trips e =
    let off, on = load_bytes scope_of e in
    acc.b_off <- acc.b_off +. (trips *. float_of_int off);
    acc.b_on <- acc.b_on +. (trips *. float_of_int on)
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
          (* loop overhead: one integer op per iteration *)
          acc.f_scalar <- acc.f_scalar +. (trips *. float_of_int n *. 0.25);
          acc.lb_scalar <- acc.lb_scalar +. (trips *. float_of_int n *. 0.25);
          walk (trips *. float_of_int n) r.body
        | Stmt.Let { value; _ } | Stmt.Assign { value; _ } ->
          acc.f_scalar <- acc.f_scalar +. (trips *. float_of_int (flop_count value));
          charge_loads trips value
        | Stmt.Store r ->
          acc.f_scalar <- acc.f_scalar +. (trips *. float_of_int (flop_count r.value));
          charge_loads trips r.value;
          let bytes = byte_size r.buf in
          (* a store to a buffer of unknown scope is on-chip traffic here
             but off-chip in the bound *)
          (match scope_of r.buf with
          | Some (s, _) when is_offchip s ->
            acc.b_off <- acc.b_off +. (trips *. bytes);
            acc.lb_off <- acc.lb_off +. (trips *. bytes)
          | Some _ ->
            acc.b_on <- acc.b_on +. (trips *. bytes);
            acc.lb_on <- acc.lb_on +. (trips *. bytes)
          | None ->
            acc.b_on <- acc.b_on +. (trips *. bytes);
            acc.lb_off <- acc.lb_off +. (trips *. bytes))
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
            if offchip buf then begin
              acc.b_off <- acc.b_off +. total;
              acc.lb_off <- acc.lb_off +. total
            end
            else begin
              acc.b_on <- acc.b_on +. total;
              acc.lb_on <- acc.lb_on +. total
            end
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
          acc.b_on <- acc.b_on +. (trips *. p 0 *. 4.0);
          acc.lb_on <- acc.lb_on +. (trips *. p 0 *. 4.0)
        | Stmt.Sync ->
          acc.f_scalar <- acc.f_scalar +. (trips *. 2.0);
          acc.lb_scalar <- acc.lb_scalar +. (trips *. 2.0)
        | Stmt.Alloc _ | Stmt.Annot _ -> ())
      block
  in
  walk 1.0 k.Kernel.body;
  ( { scalar_flops = acc.f_scalar;
      vector_elems = acc.f_vector;
      tensor_macs = acc.f_tensor;
      offchip_bytes = acc.b_off;
      onchip_bytes = acc.b_on;
      blocks = !blocks;
      threads = !threads;
      pipelined = !pipelined;
      launches = 1
    },
    acc )

let extract_features k ~shapes = fst (walk_kernel k ~shapes)

(* The estimate, and the cheap admissible bound on its throughput. The
   bound's terms skip every per-expression fold ([flop_count] and
   [load_bytes]); soundness, term by term:

   - blocks / threads / pipelined / launches are structural and shared, so
     the rates and occupancy match exactly;
   - scalar flops are under-counted (loop overhead and syncs only — no
     expression arithmetic), vector/tensor work is counted exactly, so
     [compute' <= compute];
   - traffic is under-counted (stores, memcpys and intrinsic streaming only
     — no loads), with the same scope attribution, so [memory' <= memory].
     The one exception is a store to a buffer of unknown scope, which the
     bound charges off-chip: the checker rejects such a kernel, so it is
     never a tuning result;
   - the body time is lower-bounded by [max compute' memory']: the
     unpipelined body is [compute + memory >= max], and the pipelined body
     is [max + 0.15 * min >= max].

   Hence [bound_seconds <= seconds], and the bound's throughput is [>=] the
   modelled throughput. *)
let estimate_with_bound (p : Platform.t) k ~shapes =
  let f, acc = walk_kernel k ~shapes in
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
  let bound =
    let compute =
      (acc.lb_scalar /. scalar_rate) +. (f.vector_elems /. vector_rate)
      +. (f.tensor_macs /. tensor_rate)
    in
    let memory =
      (acc.lb_off /. (c.dram_gbps *. 1e9)) +. (acc.lb_on /. (c.onchip_gbps *. 1e9))
    in
    let bound_seconds = Float.max compute memory +. (c.launch_overhead_us *. 1e-6) in
    if bound_seconds <= 0.0 then infinity else 1e9 /. bound_seconds
  in
  ({ seconds; compute_seconds = compute; memory_seconds = memory; features = f }, bound)

let estimate p k ~shapes = fst (estimate_with_bound p k ~shapes)

(* the tuning reward: inverse modelled time (scaled to an ops/s-like
   magnitude). Counting executed operations instead would reward padding
   the schedule with overhead work. *)
let throughput_of e = 1e9 /. e.seconds
let throughput p k ~shapes = throughput_of (estimate p k ~shapes)

let bound_and_throughput p k ~shapes =
  let e, bound = estimate_with_bound p k ~shapes in
  (bound, throughput_of e)
