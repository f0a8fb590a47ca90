open Xpiler_ir

(* The shared runtime (value/stat types, operator and intrinsic semantics,
   barrier effect, fiber scheduler) lives in Compile so the closure-compiled
   engine and this reference tree-walker agree by construction. [run]
   dispatches to the compiled engine; [run_tree] keeps the direct
   tree-walker as the differential-testing baseline. *)

exception Runtime_error = Compile.Runtime_error

type arg = Compile.arg = Buf of Tensor.t | Scalar_int of int | Scalar_float of float

type stats = Compile.stats = {
  mutable steps : int;
  mutable stores : int;
  mutable intrinsic_elems : int;
  mutable memcpy_elems : int;
  mutable barriers : int;
}

type value = Compile.value = I of int | F of float

type ctx = Compile.ctx = {
  stats : stats;
  fuel : int;
  trace : (string -> int -> float -> unit) option;
  traffic : (string, int) Hashtbl.t option;
}

let to_float = Compile.to_float
let to_int = Compile.to_int
let truthy = Compile.truthy
let err fmt = Compile.err fmt
let tally = Compile.tally
let buf_get = Compile.buf_get
let buf_set = Compile.buf_set
let int_binop = Compile.int_binop
let float_binop = Compile.float_binop
let unop = Compile.unop
let run_fiber_group = Compile.run_fiber_group
let fresh_stats = Compile.fresh_stats

(* ---- the compiled fast path -------------------------------------------- *)

let run ?fuel ?trace kernel args = Compile.run ?fuel ?trace (Compile.cached kernel) args

(* ---- tree-walking reference interpreter -------------------------------- *)

(* Environments are hash tables with [Hashtbl.add]/[remove] as push/pop:
   lookup is O(1) instead of a linear assoc-list scan, and shadowing keeps
   the exact stack discipline of the original cons-based environment. *)
type env = { scalars : (string, value ref) Hashtbl.t; bufs : (string, Tensor.t) Hashtbl.t }

let lookup_scalar env x =
  match Hashtbl.find_opt env.scalars x with
  | Some r -> !r
  | None -> err "unbound variable %s" x

let lookup_buf env b =
  match Hashtbl.find_opt env.bufs b with
  | Some t -> t
  | None -> err "unbound buffer %s" b

let load env b i =
  let t = lookup_buf env b in
  let v = buf_get t b i in
  if Dtype.is_float t.Tensor.dtype then F v else I (int_of_float v)

let rec eval env (e : Expr.t) : value =
  match e with
  | Int n -> I n
  | Float f -> F f
  | Var x -> lookup_scalar env x
  | Load (b, i) -> load env b (to_int (eval env i))
  | Binop (op, l, r) -> (
    let a = eval env l in
    let b = eval env r in
    match (a, b) with
    | I x, I y -> int_binop op x y
    | _ -> float_binop op (to_float a) (to_float b))
  | Unop (op, x) -> unop op (eval env x)
  | Select (c, t, f) -> if truthy (eval env c) then eval env t else eval env f
  | Cast (d, x) ->
    let v = eval env x in
    if Dtype.is_float d then F (to_float v) else I (to_int v)

let eval_int env e = to_int (eval env e)
let eval_float env e = to_float (eval env e)

let intrinsic_exec ctx env (i : Intrin.t) =
  let name = Intrin.op_name i.op in
  let dst_t = lookup_buf env i.dst.buf in
  let dst_off = eval_int env i.dst.offset in
  let srcs =
    Array.of_list
      (List.map
         (fun (r : Intrin.buf_ref) -> (lookup_buf env r.buf, r.buf, eval_int env r.offset))
         i.srcs)
  in
  let params = Array.of_list (List.map (eval_int env) i.params) in
  let fparam () =
    match i.params with _ :: e :: _ -> eval_float env e | _ -> err "%s: no scalar" name
  in
  Compile.intrinsic_exec ctx.stats ~name ~op:i.op ~dst_t ~dname:i.dst.buf ~dst_off ~srcs
    ~params ~fparam

(* per-fiber private scalars: rebuild the table with fresh refs, preserving
   each name's shadowing stack *)
let copy_scalars scalars =
  let fresh = Hashtbl.create (Hashtbl.length scalars) in
  let seen = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name _ ->
      if not (Hashtbl.mem seen name) then begin
        Hashtbl.add seen name ();
        (* find_all returns most-recent first; re-add oldest first *)
        List.iter
          (fun r -> Hashtbl.add fresh name (ref !r))
          (List.rev (Hashtbl.find_all scalars name))
      end)
    scalars;
  fresh

let rec exec_block ctx env block =
  let pushed_s = ref [] and pushed_b = ref [] in
  List.iter
    (fun stmt ->
      match exec_stmt ctx env stmt with
      | None -> ()
      | Some (`Scalar v) -> pushed_s := v :: !pushed_s
      | Some (`Buf b) -> pushed_b := b :: !pushed_b)
    block;
  (* bindings scope to the end of the block *)
  List.iter (Hashtbl.remove env.scalars) !pushed_s;
  List.iter (Hashtbl.remove env.bufs) !pushed_b

and exec_stmt ctx env stmt : [ `Scalar of string | `Buf of string ] option =
  ctx.stats.steps <- ctx.stats.steps + 1;
  if ctx.stats.steps > ctx.fuel then err "fuel exhausted (non-terminating program?)";
  match stmt with
  | Stmt.Annot _ -> None
  | Stmt.Let { var; value } ->
    let v = eval env value in
    Hashtbl.add env.scalars var (ref v);
    Some (`Scalar var)
  | Stmt.Assign { var; value } ->
    (match Hashtbl.find_opt env.scalars var with
    | Some r -> r := eval env value
    | None -> err "assignment to unbound variable %s" var);
    None
  | Stmt.Store { buf; index; value } ->
    let t = lookup_buf env buf in
    let i = eval_int env index in
    let v = eval env value in
    let v = if Dtype.is_float t.Tensor.dtype then to_float v else float_of_int (to_int v) in
    buf_set t buf i v;
    ctx.stats.stores <- ctx.stats.stores + 1;
    tally ctx buf 1;
    (match ctx.trace with Some f -> f buf i v | None -> ());
    None
  | Stmt.Alloc { buf; dtype; size; _ } ->
    Hashtbl.add env.bufs buf (Tensor.create ~dtype size);
    Some (`Buf buf)
  | Stmt.If { cond; then_; else_ } ->
    if truthy (eval env cond) then exec_block ctx env then_ else exec_block ctx env else_;
    None
  | Stmt.Memcpy { dst; src; len } ->
    let dt = lookup_buf env dst.buf in
    let st = lookup_buf env src.buf in
    let doff = eval_int env dst.offset in
    let soff = eval_int env src.offset in
    let n = eval_int env len in
    if n < 0 then err "memcpy: negative length %d" n;
    for k = 0 to n - 1 do
      buf_set dt dst.buf (doff + k) (buf_get st src.buf (soff + k))
    done;
    ctx.stats.memcpy_elems <- ctx.stats.memcpy_elems + n;
    tally ctx dst.buf n;
    None
  | Stmt.Intrinsic i ->
    let before = ctx.stats.intrinsic_elems in
    intrinsic_exec ctx env i;
    tally ctx i.Intrin.dst.Intrin.buf (ctx.stats.intrinsic_elems - before);
    None
  | Stmt.Sync ->
    ctx.stats.barriers <- ctx.stats.barriers + 1;
    (try Effect.perform Compile.Barrier with Effect.Unhandled _ -> ());
    None
  | Stmt.For { var; lo; extent; kind = Stmt.Parallel ax; body } when Axis.is_thread ax ->
    (* collect the maximal immediately-nested chain of thread-parallel loops
       so a barrier synchronizes the whole thread block *)
    let rec chain acc body =
      match body with
      | [ Stmt.For { var; lo; extent; kind = Stmt.Parallel ax; body = inner } ]
        when Axis.is_thread ax ->
        chain ((var, lo, extent) :: acc) inner
      | _ -> (List.rev acc, body)
    in
    let loops, innermost = chain [ (var, lo, extent) ] body in
    let rec spawn scalars = function
      | [] ->
        [ (fun () -> exec_block ctx { env with scalars } innermost) ]
      | (v, lo_e, ext_e) :: rest ->
        let fenv = { env with scalars } in
        let lo_v = eval_int fenv lo_e in
        let ext_v = eval_int fenv ext_e in
        if ext_v < 0 then err "negative loop extent in %s" v;
        List.concat
          (List.init ext_v (fun i ->
               let scalars' = copy_scalars scalars in
               Hashtbl.add scalars' v (ref (I (lo_v + i)));
               spawn scalars' rest))
    in
    run_fiber_group (spawn env.scalars loops);
    None
  | Stmt.For { var; lo; extent; body; _ } ->
    let lo_v = eval_int env lo in
    let ext_v = eval_int env extent in
    if ext_v < 0 then err "negative loop extent in %s" var;
    let cell = ref (I lo_v) in
    Hashtbl.add env.scalars var cell;
    Fun.protect
      ~finally:(fun () -> Hashtbl.remove env.scalars var)
      (fun () ->
        for i = lo_v to lo_v + ext_v - 1 do
          cell := I i;
          exec_block ctx env body
        done);
    None

let build_env (kernel : Kernel.t) args =
  let env = { scalars = Hashtbl.create 16; bufs = Hashtbl.create 16 } in
  List.iter
    (fun (p : Kernel.param) ->
      match List.assoc_opt p.name args with
      | None -> err "missing argument for parameter %s" p.name
      | Some (Buf t) ->
        if not p.is_buffer then err "parameter %s is scalar but got a buffer" p.name;
        Hashtbl.add env.bufs p.name t
      | Some (Scalar_int n) ->
        if p.is_buffer then err "parameter %s is a buffer but got a scalar" p.name;
        Hashtbl.add env.scalars p.name (ref (I n))
      | Some (Scalar_float f) ->
        if p.is_buffer then err "parameter %s is a buffer but got a scalar" p.name;
        Hashtbl.add env.scalars p.name (ref (F f)))
    kernel.Kernel.params;
  env

let run_tree ?(fuel = 200_000_000) ?trace kernel args =
  let stats = fresh_stats () in
  let traffic = if Xpiler_obs.Trace.enabled () then Some (Hashtbl.create 8) else None in
  let ctx = { stats; fuel; trace; traffic } in
  let env = build_env kernel args in
  Fun.protect
    ~finally:(fun () -> Compile.profile stats (Compile.traffic_list traffic))
    (fun () -> exec_block ctx env kernel.Kernel.body);
  stats

(* ---- run receipts ------------------------------------------------------ *)

type receipt = Compile.receipt = {
  stats : stats;
  traffic : (string * int) list option;
  error : string option;
}

let run_receipt ?fuel kernel args = Compile.run_receipt ?fuel (Compile.cached kernel) args
let replay = Compile.replay
