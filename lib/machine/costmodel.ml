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

(* The walk allocates nothing per statement or expression. Its float sums
   live in an all-float record, which is stored flat, so an update
   allocates nothing; [trips] is the enclosing loops' trip count, kept here
   rather than passed as an argument, where it would be boxed. *)
type sums = {
  mutable trips : float;
  mutable scalar : float;
  mutable vector : float;
  mutable tensor : float;
  mutable off : float;
  mutable on : float;
}

(* The rest of a walk's state. [allocs] are the body's [Alloc] statements,
   last first; [load_off]/[load_on] sum one expression's load bytes. *)
type walk = {
  sums : sums;
  params : Kernel.param list;
  allocs : Stmt.t list;
  lookup : string -> int;
  mutable blocks : int;
  mutable threads : int;
  mutable pipelined : bool;
  mutable load_off : int;
  mutable load_on : int;
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

(* the body's [Alloc]s in [Stmt.iter] order, the last one first *)
let rec collect_allocs acc = function
  | [] -> acc
  | stmt :: rest ->
    let acc =
      match stmt with
      | Stmt.Alloc _ -> stmt :: acc
      | Stmt.For r -> collect_allocs acc r.body
      | Stmt.If r -> collect_allocs (collect_allocs acc r.then_) r.else_
      | _ -> acc
    in
    collect_allocs acc rest

(* Where buffer [b] lives, as one immediate int: its element size in bytes,
   negated when it lives off-chip, and 0 when nothing declares it. The last
   [Alloc] of a name wins over earlier ones and over a buffer parameter,
   which lives in global memory. *)
let rec param_residence b found = function
  | [] -> found
  | (p : Kernel.param) :: rest ->
    let found =
      if p.is_buffer && String.equal p.name b then -Dtype.size_in_bytes p.dtype else found
    in
    param_residence b found rest

let rec alloc_residence params b = function
  | Stmt.Alloc r :: _ when String.equal r.buf b ->
    let n = Dtype.size_in_bytes r.dtype in
    if is_offchip r.scope then -n else n
  | _ :: rest -> alloc_residence params b rest
  | [] -> param_residence b 0 params

let residence w b = alloc_residence w.params b w.allocs

(* an undeclared buffer's elements count as 4 bytes *)
let byte_size r = if r = 0 then 4.0 else float_of_int (abs r)

(* bytes of off-chip / on-chip traffic implied by the loads in [e]; an
   undeclared buffer is read from off-chip memory *)
let rec count_loads w (e : Expr.t) =
  match e with
  | Int _ | Float _ | Var _ -> ()
  | Load (b, i) ->
    let r = residence w b in
    if r <= 0 then w.load_off <- w.load_off + (if r = 0 then 4 else -r)
    else w.load_on <- w.load_on + r;
    count_loads w i
  | Binop (_, l, r) ->
    count_loads w l;
    count_loads w r
  | Unop (_, x) | Cast (_, x) -> count_loads w x
  | Select (c, t, f) ->
    count_loads w c;
    count_loads w t;
    count_loads w f

let charge_loads w e =
  w.load_off <- 0;
  w.load_on <- 0;
  count_loads w e;
  let s = w.sums in
  s.off <- s.off +. (s.trips *. float_of_int w.load_off);
  s.on <- s.on +. (s.trips *. float_of_int w.load_on)

(* a trip count from the integer environment; 8 when it cannot be
   evaluated *)
let extent w (e : Expr.t) =
  match e with
  | Int n -> max n 0
  | _ -> ( match Expr.eval_int w.lookup e with n -> max n 0 | exception _ -> 8)

(* an intrinsic's [n]-th size parameter; 1 when it has none *)
let rec param_extent w params n =
  match params with
  | [] -> 1
  | e :: rest -> if n = 0 then extent w e else param_extent w rest (n - 1)

let rec walk w = function
  | [] -> ()
  | stmt :: rest ->
    let s = w.sums in
    let trips = s.trips in
    (match stmt with
    | Stmt.For r ->
      let n = extent w r.extent in
      (match r.kind with
      | Stmt.Parallel (Axis.Block_x | Axis.Block_y | Axis.Block_z | Axis.Task_id | Axis.Cluster_id) ->
        w.blocks <- w.blocks * max n 1
      | Stmt.Parallel (Axis.Thread_x | Axis.Thread_y | Axis.Thread_z | Axis.Core_id) ->
        w.threads <- w.threads * max n 1
      | Stmt.Pipelined -> w.pipelined <- true
      | Stmt.Serial | Stmt.Unrolled | Stmt.Vectorized -> ());
      (* loop overhead: one integer op per iteration *)
      s.scalar <- s.scalar +. (trips *. float_of_int n *. 0.25);
      s.trips <- trips *. float_of_int n;
      walk w r.body;
      s.trips <- trips
    | Stmt.Let { value; _ } | Stmt.Assign { value; _ } ->
      s.scalar <- s.scalar +. (trips *. float_of_int (flop_count value));
      charge_loads w value
    | Stmt.Store r ->
      s.scalar <- s.scalar +. (trips *. float_of_int (flop_count r.value));
      charge_loads w r.value;
      (* a store to an undeclared buffer is on-chip traffic *)
      let res = residence w r.buf in
      let bytes = byte_size res in
      if res < 0 then s.off <- s.off +. (trips *. bytes) else s.on <- s.on +. (trips *. bytes)
    | Stmt.If r ->
      charge_loads w r.cond;
      walk w r.then_;
      s.trips <- trips *. 0.25;
      walk w r.else_;
      s.trips <- trips
    | Stmt.Memcpy r ->
      let n = float_of_int (extent w r.len) in
      (* a copy to or from an undeclared buffer is off-chip traffic *)
      let dst = residence w r.dst.buf and src = residence w r.src.buf in
      let total = trips *. n *. byte_size dst in
      if dst <= 0 then s.off <- s.off +. total else s.on <- s.on +. total;
      let total = trips *. n *. byte_size src in
      if src <= 0 then s.off <- s.off +. total else s.on <- s.on +. total
    | Stmt.Intrinsic i ->
      let p n = float_of_int (param_extent w i.params n) in
      let p0 = p 0 in
      (match i.op with
      | Intrin.Mma | Intrin.Mlp -> s.tensor <- s.tensor +. (trips *. p0 *. p 1 *. p 2)
      | Intrin.Conv2d ->
        s.tensor <- s.tensor +. (trips *. p0 *. p 1 *. p 2 *. p 3 *. p 4 *. p 5)
      | Intrin.Dp4a -> s.tensor <- s.tensor +. (trips *. p0)
      | _ -> s.vector <- s.vector +. (trips *. p0));
      (* intrinsic operands stream through on-chip memory *)
      s.on <- s.on +. (trips *. p0 *. 4.0)
    | Stmt.Sync -> s.scalar <- s.scalar +. (trips *. 2.0)
    | Stmt.Alloc _ | Stmt.Annot _ -> ());
    walk w rest

(* the tuner passes no shapes: its integer environment is empty *)
let no_shapes _ = raise Not_found

let extract_features (k : Kernel.t) ~shapes =
  let lookup =
    match shapes with
    | [] -> no_shapes
    | _ ->
      let env = Hashtbl.create 16 in
      List.iter (fun (n, v) -> Hashtbl.replace env n v) shapes;
      Hashtbl.find env
  in
  let w =
    { sums = { trips = 1.0; scalar = 0.0; vector = 0.0; tensor = 0.0; off = 0.0; on = 0.0 };
      params = k.Kernel.params;
      allocs = collect_allocs [] k.Kernel.body;
      lookup;
      blocks = 1;
      threads = 1;
      pipelined = false;
      load_off = 0;
      load_on = 0
    }
  in
  walk w k.Kernel.body;
  let s = w.sums in
  { scalar_flops = s.scalar;
    vector_elems = s.vector;
    tensor_macs = s.tensor;
    offchip_bytes = s.off;
    onchip_bytes = s.on;
    blocks = w.blocks;
    threads = w.threads;
    pipelined = w.pipelined;
    launches = 1
  }

let estimate (p : Platform.t) k ~shapes =
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
  { seconds; compute_seconds = compute; memory_seconds = memory; features = f }

(* the tuning reward: inverse modelled time (scaled to an ops/s-like
   magnitude). Counting executed operations instead would reward padding
   the schedule with overhead work. *)
let throughput_of e = 1e9 /. e.seconds
let throughput p k ~shapes = throughput_of (estimate p k ~shapes)
