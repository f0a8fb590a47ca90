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

(* [Loop_pass.interchange_legal] as it was before it became one walk: the
   read-modify-write rule compares indexes with [Linear.equal_linear] per
   pair, from [buffers_read]/[buffers_written] lists, and every nest with
   more than one store enumerates its box into a tuple-keyed [Hashtbl] *)
module Loop_legal = struct
  (* an index [eval_int] evaluates without raising and [Linear.decompose]
     represents without dropping anything *)
  let rec int_polynomial = function
    | Expr.Int _ | Expr.Var _ -> true
    | Expr.Binop ((Expr.Add | Expr.Sub | Expr.Mul), l, r) -> int_polynomial l && int_polynomial r
    | Expr.Unop (Expr.Neg, x) -> int_polynomial x
    | _ -> false
  
  let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)
  
  (* coefficients below this bound cannot wrap [c1 * da + c2 * db] for the
     differences a capped box allows, so the closed form matches the wrapping
     arithmetic of [eval_int] *)
  let coeff_limit = 1 lsl 40
  
  (* whether one store's addresses are distinct over the non-empty box
     [0, e1) x [0, e2), with every other variable at 0, when the index is
     c1*v1 + c2*v2 + (plain variables) + const. Two iterations collide iff
     c1*da + c2*db = 0 for some nonzero (da, db) with |da| < e1 and |db| < e2;
     the smallest such difference is (c2/g, -c1/g) with g = gcd c1 c2. [None]
     when the index is outside that class. *)
  let affine_injective ~v1 ~e1 ~v2 ~e2 index =
    if not (int_polynomial index) then None
    else begin
      let d = Linear.decompose index in
      let c1 = Linear.coeff_of_var v1 d and c2 = Linear.coeff_of_var v2 d in
      let small c = c > -coeff_limit && c < coeff_limit in
      if not (List.for_all (function Expr.Var _, _ -> true | _ -> false) d.Linear.terms)
         || not (small c1 && small c2)
      then None
      else if c1 = 0 && c2 = 0 then Some (e1 * e2 <= 1)
      else begin
        let g = gcd c1 c2 in
        Some (not (abs (c2 / g) <= e1 - 1 && abs (c1 / g) <= e2 - 1))
      end
    end
  
  let interchange_legal ~v1 ~e1 ~v2 ~e2 body =
    if e1 * e2 > 4096 then false
    else begin
      let written = Stmt.buffers_written body and read = Stmt.buffers_read body in
      let rmw_ok =
        List.for_all
          (fun buf ->
            if not (List.mem buf read) then true
            else begin
              (* every load of [buf] must linearly equal some same-statement
                 store index; conservatively require it equals the single store
                 index of that buffer *)
              let store_idx = ref None and ok = ref true in
              Stmt.iter
                (fun s ->
                  match s with
                  | Stmt.Store { buf = b; index; _ } when String.equal b buf -> (
                    match !store_idx with
                    | None -> store_idx := Some index
                    | Some i -> if not (Linear.equal_linear i index) then ok := false)
                  | _ -> ())
                body;
              (match !store_idx with
              | None -> ()
              | Some si ->
                Stmt.iter
                  (fun s ->
                    Stmt.map_exprs
                      (Expr.map (function
                        | Expr.Load (b, idx) when String.equal b buf ->
                          if not (Linear.equal_linear idx si) then ok := false;
                          None
                        | _ -> None))
                      s
                    |> ignore)
                  body);
              !ok
            end)
          written
      in
      (* per buffer, an address may be written from at most one iteration of
         the (v1, v2) space: writes within one iteration keep their program
         order under interchange, writes from different iterations do not *)
      let injective () =
        let stores = ref [] in
        Stmt.iter
          (fun s -> match s with Stmt.Store r -> stores := (r.buf, r.index) :: !stores | _ -> ())
          body;
        let enumerate () =
          (* evaluating with outer variables at 0 is exact only when, for every
             pair of stores to the same buffer, the index difference over the
             outer variables is constant; otherwise be conservative *)
          let pairwise_outer_constant =
            let rec pairs = function
              | [] -> true
              | (buf, idx) :: rest ->
                List.for_all
                  (fun (buf', idx') ->
                    (not (String.equal buf buf'))
                    ||
                    let d = Linear.decompose (Expr.Binop (Expr.Sub, idx, idx')) in
                    let d = Linear.drop_var v1 (Linear.drop_var v2 d) in
                    d.Linear.terms = [])
                  rest
                && pairs rest
            in
            pairs !stores
          in
          let seen : (string * int, int * int) Hashtbl.t = Hashtbl.create 64 in
          let ok = ref pairwise_outer_constant in
          (try
             for a = 0 to e1 - 1 do
               for b = 0 to e2 - 1 do
                 List.iter
                   (fun (buf, index) ->
                     let v =
                       Expr.eval_int
                         (fun x -> if x = v1 then a else if x = v2 then b else 0)
                         index
                     in
                     match Hashtbl.find_opt seen (buf, v) with
                     | Some (a', b') when (a', b') <> (a, b) ->
                       ok := false;
                       raise Exit
                     | _ -> Hashtbl.replace seen (buf, v) (a, b))
                   !stores
               done
             done
           with
          | Exit -> ()
          | _ -> ok := false);
          !ok
        in
        match !stores with
        | [] -> true
        | [ _ ] when e1 <= 0 || e2 <= 0 -> true
        | [ (_, index) ] -> (
          match affine_injective ~v1 ~e1 ~v2 ~e2 index with
          | Some injective -> injective
          | None -> enumerate ())
        | _ -> enumerate ()
      in
      rmw_ok && injective ()
    end
end

let interchange_legal = Loop_legal.interchange_legal

(* [Actions.enumerate] as it was before it collected its facts in one walk:
   about ten walks of the kernel, and one [Stmt.intrinsics] walk per cached
   buffer on the MLU *)
module Enumerate = struct
  open Xpiler_tuning
  module Pass = Xpiler_passes.Pass
  module Memory_pass = Xpiler_passes.Memory_pass

  let take = Xpiler_util.Listx.take

  let pick_factors factors =
    (* bound branching: smallest, middle, largest *)
    match factors with
    | [] -> []
    | [ f ] -> [ f ]
    | fs ->
      let arr = Array.of_list fs in
      let n = Array.length arr in
      List.sort_uniq compare [ arr.(0); arr.(n / 2); arr.(n - 1) ]
  
  let is_block_axis = function
    | Axis.Block_x | Axis.Block_y | Axis.Block_z | Axis.Task_id | Axis.Cluster_id -> true
    | Axis.Thread_x | Axis.Thread_y | Axis.Thread_z | Axis.Core_id -> false
  
  (* the MCTS branching cap *)
  let max_actions = 14
  
  let enumerate ?(buffer_sizes = []) (platform : Platform.t) (k : Kernel.t) =
    let splits =
      Knobs.splittable_loops k
      |> take 2
      |> List.concat_map (fun (var, extent) ->
             List.map
               (fun factor -> Pass.Loop_split { var; factor })
               (pick_factors (Knobs.split_factors platform ~extent)))
    in
    let binds =
      let axes = Knobs.bindable_axes platform k in
      let block_axis = List.find_opt is_block_axis axes in
      let thread_axis = List.find_opt (fun a -> not (is_block_axis a)) axes in
      (* only zero-based loops with independent iterations are bindable: a
         loop carrying a scalar accumulator declared outside it, or storing at
         indices that do not vary with it, would race on real hardware *)
      let independent (r_var : string) body =
        let outer_assign = ref false and invariant_store = ref false in
        let declared = Hashtbl.create 8 in
        Stmt.iter
          (fun s ->
            match s with
            | Stmt.Let { var; _ } -> Hashtbl.replace declared var ()
            | Stmt.Assign { var; _ } when not (Hashtbl.mem declared var) -> outer_assign := true
            | Stmt.Store { index; _ } when not (Expr.contains_var r_var index) ->
              invariant_store := true
            | Stmt.Memcpy { dst; _ } when not (Expr.contains_var r_var dst.offset) ->
              invariant_store := true
            | Stmt.Intrinsic i when not (Expr.contains_var r_var i.dst.offset) ->
              invariant_store := true
            | _ -> ())
          body;
        not (!outer_assign || !invariant_store)
      in
      let top_loops =
        let rec collect block =
          List.concat_map
            (function
              | Stmt.For ({ kind = Stmt.Serial; lo = Expr.Int 0; extent = Expr.Int _; _ } as r)
                ->
                (if independent r.var r.body then [ r.var ] else []) @ collect r.body
              | Stmt.For r -> collect r.body
              | _ -> [])
            block
        in
        take 2 (collect k.Kernel.body)
      in
      List.concat_map
        (fun var ->
          List.filter_map
            (fun axis -> Option.map (fun axis -> Pass.Loop_bind { var; axis }) axis)
            [ block_axis; thread_axis ])
        top_loops
    in
    let reorders = List.map (fun var -> Pass.Loop_reorder { var }) (take 1 (Knobs.reorderable_loops k)) in
    let expansions =
      (* loops with several statements are fission candidates; the pass itself
         rejects unsound distributions *)
      let found = ref [] in
      Stmt.iter
        (fun s ->
          match s with
          | Stmt.For { var; body; kind = Stmt.Serial; _ }
            when List.length body >= 2 && !found = [] ->
            found := [ Pass.Loop_expansion { var } ]
          | _ -> ())
        k.Kernel.body;
      !found
    in
    let contractions =
      let rec adjacent block =
        match block with
        | Stmt.For r1 :: Stmt.For r2 :: _
          when String.equal r1.var r2.var && Expr.equal r1.extent r2.extent ->
          [ Pass.Loop_contraction { var = r1.var } ]
        | s :: rest -> (
          match s with
          | Stmt.For r -> (
            match adjacent r.body with [] -> adjacent rest | found -> found)
          | _ -> adjacent rest)
        | [] -> []
      in
      adjacent k.Kernel.body
    in
    let pipelines = List.map (fun var -> Pass.Pipeline { var }) (take 1 (Knobs.pipelinable_loops k)) in
    let existing_allocs = List.map (fun (b, _, _, _) -> b) (Stmt.allocs k.Kernel.body) in
    let caches =
      let reads = Stmt.buffers_read k.Kernel.body in
      let writes = Stmt.buffers_written k.Kernel.body in
      let scope = Platform.default_compute_scope platform.Platform.id in
      List.filter_map
        (fun (buf, size) ->
          let cache_name s = buf ^ "_" ^ Scope.to_string s in
          if List.mem (cache_name scope) existing_allocs || List.mem (cache_name Scope.Wram) existing_allocs
          then None
          else if List.mem buf writes then
            (* Readwrite staging is the sound generic choice: Write-only would
               clobber cells the kernel never writes *)
            Some
              (Pass.Cache
                 { buf; scope; direction = Memory_pass.Readwrite; under = None;
                   base = Expr.Int 0; size })
          else if List.mem buf reads then begin
            let scope =
              (* second read operand of a matmul prefers WRAM on the MLU *)
              if Platform.equal_id platform.Platform.id Platform.Bang
                 && List.exists
                      (fun (i : Intrin.t) ->
                        Intrin.is_matrix i.op
                        && List.exists (fun (r : Intrin.buf_ref) -> String.equal r.buf buf)
                             (match i.srcs with _ :: rest -> rest | [] -> []))
                      (Stmt.intrinsics k.Kernel.body)
              then Scope.Wram
              else scope
            in
            Some
              (Pass.Cache
                 { buf; scope; direction = Memory_pass.Read; under = None; base = Expr.Int 0;
                   size })
          end
          else None)
        buffer_sizes
    in
    let tensorize = if platform.Platform.intrinsics <> [] then [ Pass.Tensorize ] else [] in
    let detensorize = if Stmt.intrinsics k.Kernel.body <> [] then [ Pass.Detensorize ] else [] in
    let recovery = if Stmt.axes_used k.Kernel.body <> [] then [ Pass.Loop_recovery ] else [] in
    take max_actions
      (tensorize @ caches @ binds @ splits @ pipelines @ reorders @ expansions @ contractions
      @ detensorize @ recovery)
end

let enumerate = Enumerate.enumerate

(* [Intra.tune] as it was before its candidate loop became plain loops:
   each phase a lazy [Seq] of candidate records, with a [deferred] closure
   per knob walk and a composed spec list per composed candidate *)
module Intra_seq = struct
  open Xpiler_tuning
  module Pass = Xpiler_passes.Pass
  module Listx = Xpiler_util.Listx

  type variant = Intra.variant = {
    specs : Pass.spec list;
    kernel : Kernel.t;
    throughput : float;
  }

  (* a candidate records its whole spec sequence but is built by applying only
     its [last] spec to [seed], the kernel the sequence's prefix already
     produced: passes are pure, so this equals folding [specs] from the input *)
  type candidate = { specs : Pass.spec list; seed : Kernel.t; last : Pass.spec option }

  (* [f ()]'s elements, with [f] run only when the first one is asked for:
     the candidate lists are walked only as far as the cap reaches *)
  let deferred (f : unit -> 'a Seq.t) : 'a Seq.t = fun () -> f () ()

  let candidates platform k =
    let one spec = { specs = [ spec ]; seed = k; last = Some spec } in
    let splits =
      deferred (fun () ->
          Seq.concat_map
            (fun (var, extent) ->
              deferred (fun () ->
                  Seq.map
                    (fun factor -> one (Pass.Loop_split { var; factor }))
                    (List.to_seq (Knobs.split_factors platform ~extent))))
            (List.to_seq (Knobs.splittable_loops k)))
    in
    let reorders =
      deferred (fun () ->
          Seq.map (fun var -> one (Pass.Loop_reorder { var })) (List.to_seq (Knobs.reorderable_loops k)))
    in
    let pipelines =
      deferred (fun () ->
          Seq.map (fun var -> one (Pass.Pipeline { var })) (List.to_seq (Knobs.pipelinable_loops k)))
    in
    Seq.cons { specs = []; seed = k; last = None } (Seq.append splits (Seq.append reorders pipelines))

  let composed_candidates (seeds : variant list) =
    Seq.concat_map
      (fun (v : variant) ->
        match v.specs with
        | [ Pass.Loop_split _ ] ->
          let extend spec = { specs = v.specs @ [ spec ]; seed = v.kernel; last = Some spec } in
          Seq.append
            (deferred (fun () ->
                 Seq.map
                   (fun var -> extend (Pass.Loop_reorder { var }))
                   (List.to_seq (Knobs.reorderable_loops v.kernel))))
            (deferred (fun () ->
                 Seq.map
                   (fun var -> extend (Pass.Pipeline { var }))
                   (List.to_seq (Knobs.pipelinable_loops v.kernel))))
        | _ -> Seq.empty)
      (List.to_seq seeds)

  let max_candidates = 12
  let compose_seeds = 4

  let tune ~platform k : Intra.variant * Intra.stats =
    let compiles k = Result.is_ok (Checker.compile platform k) in
    let modelled_throughput k = Costmodel.throughput platform k ~shapes:[] in
    if not (compiles k) then ({ specs = []; kernel = k; throughput = 0.0 }, { evaluated = 0 })
    else
    let base = { specs = []; kernel = k; throughput = modelled_throughput k } in
    let best = ref base in
    let measured = ref [] in
    let evaluated = ref 0 in
    let measure v =
      incr evaluated;
      measured := v :: !measured;
      if v.throughput > !best.throughput then best := v
    in
    let phase cands =
      Seq.iter
        (fun c ->
          match c.last with
          | None -> measure base
          | Some spec -> (
            match Pass.apply ~platform spec c.seed with
            | Ok kernel -> measure { specs = c.specs; kernel; throughput = modelled_throughput kernel }
            | Error _ -> ()))
        (Seq.take max_candidates cands)
    in
    phase (candidates platform k);
    let seeds = Listx.top_k ~k:compose_seeds ~score:(fun v -> v.throughput) (List.rev !measured) in
    phase (composed_candidates seeds);
    let winner = if !best == base || compiles !best.kernel then !best else base in
    (winner, { evaluated = !evaluated })
end

let intra_tune = Intra_seq.tune

(* [Loop_pass.split] as it was before it built the recomposed index
   directly: [lo + v_0 * f + v_1] through [Linear.normalize] for every
   start, the loop found by the option-returning [Rewrite.rewrite_loop] *)
let split ~var ~factor (k : Kernel.t) =
  let exception Failed of string in
  let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt in
  match
    if factor <= 0 then fail "split factor must be positive";
    Xpiler_passes.Rewrite.rewrite_loop var
      (fun ~var ~lo ~extent ~kind ~body ->
        let e =
          match Xpiler_passes.Rewrite.const_extent extent with Ok n -> n | Error m -> fail "%s" m
        in
        if factor > e then fail "split factor %d exceeds extent %d" factor e;
        let outer_var = var ^ "_0" and inner_var = var ^ "_1" in
        let recomposed =
          Linear.normalize
            Expr.(
              Binop (Add, lo, Binop (Add, Binop (Mul, Var outer_var, Int factor), Var inner_var)))
        in
        let inner_body = Stmt.subst_var var recomposed body in
        let divides = e mod factor = 0 in
        let outer_extent = if divides then e / factor else (e + factor - 1) / factor in
        let guarded =
          if divides then inner_body
          else
            [ Stmt.If
                { cond =
                    Expr.(
                      Binop
                        ( Lt,
                          Binop (Add, Binop (Mul, Var outer_var, Int factor), Var inner_var),
                          Int e ));
                  then_ = inner_body;
                  else_ = []
                }
            ]
        in
        [ Stmt.For
            { var = outer_var;
              lo = Expr.Int 0;
              extent = Expr.Int outer_extent;
              kind;
              body =
                [ Stmt.For
                    { var = inner_var; lo = Expr.Int 0; extent = Expr.Int factor; kind = Stmt.Serial;
                      body = guarded }
                ]
            }
        ])
      k.Kernel.body
  with
  | None -> Error (Printf.sprintf "no loop named %s" var)
  | Some body -> Ok (Kernel.with_body k body)
  | exception Failed m -> Error m
