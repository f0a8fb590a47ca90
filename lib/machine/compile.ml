open Xpiler_ir

(* The fast evaluation engine: lowers a kernel once into OCaml closures over
   slot-indexed frames (arrays, not assoc lists). The runtime pieces shared
   with the tree-walking reference interpreter — value/stat types, scalar
   operator semantics, intrinsic semantics, the barrier effect and fiber
   scheduler — live here so both engines agree by construction. *)

exception Runtime_error of string

type arg = Buf of Tensor.t | Scalar_int of int | Scalar_float of float

type stats = {
  mutable steps : int;
  mutable stores : int;
  mutable intrinsic_elems : int;
  mutable memcpy_elems : int;
  mutable barriers : int;
}

type value = I of int | F of float

type ctx = {
  stats : stats;
  fuel : int;
  trace : (string -> int -> float -> unit) option;
  traffic : (string, int) Hashtbl.t option;
      (** per-buffer written elements, tallied only when profiling *)
}

let to_float = function I n -> float_of_int n | F f -> f
let to_int = function I n -> n | F f -> int_of_float f
let truthy = function I n -> n <> 0 | F f -> f <> 0.0
let of_bool b = I (if b then 1 else 0)

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let tally ctx buf n =
  match ctx.traffic with
  | None -> ()
  | Some tbl -> Hashtbl.replace tbl buf (n + Option.value ~default:0 (Hashtbl.find_opt tbl buf))

let oob_read b i n = err "out-of-bounds read %s[%d] (size %d)" b i n
let oob_write b i n = err "out-of-bounds write %s[%d] (size %d)" b i n

(* single bounds check, then unsafe access: these run once per simulated
   element so the double check of Tensor.get/set is measurable. Inlined,
   with the error path out of line: without flambda a float crossing a
   function call is boxed, so a called [buf_get] allocates per element *)
let[@inline] buf_get t b i =
  let data = t.Tensor.data in
  if i < 0 || i >= Array.length data then oob_read b i (Array.length data)
  else Array.unsafe_get data i

let[@inline] buf_set t b i v =
  let data = t.Tensor.data in
  if i < 0 || i >= Array.length data then oob_write b i (Array.length data)
  else Array.unsafe_set data i v

let int_binop op a b =
  match (op : Expr.binop) with
  | Add -> I (a + b)
  | Sub -> I (a - b)
  | Mul -> I (a * b)
  | Div -> if b = 0 then err "integer division by zero" else I (a / b)
  | Mod -> if b = 0 then err "integer modulo by zero" else I (a mod b)
  | Min -> I (min a b)
  | Max -> I (max a b)
  | Eq -> of_bool (a = b)
  | Ne -> of_bool (a <> b)
  | Lt -> of_bool (a < b)
  | Le -> of_bool (a <= b)
  | Gt -> of_bool (a > b)
  | Ge -> of_bool (a >= b)
  | And -> of_bool (a <> 0 && b <> 0)
  | Or -> of_bool (a <> 0 || b <> 0)

let float_binop op a b =
  match (op : Expr.binop) with
  | Add -> F (a +. b)
  | Sub -> F (a -. b)
  | Mul -> F (a *. b)
  | Div -> F (a /. b)
  | Mod -> F (Float.rem a b)
  | Min -> F (Float.min a b)
  | Max -> F (Float.max a b)
  | Eq -> of_bool (a = b)
  | Ne -> of_bool (a <> b)
  | Lt -> of_bool (a < b)
  | Le -> of_bool (a <= b)
  | Gt -> of_bool (a > b)
  | Ge -> of_bool (a >= b)
  | And -> of_bool (a <> 0.0 && b <> 0.0)
  | Or -> of_bool (a <> 0.0 || b <> 0.0)

(* Abramowitz & Stegun 7.1.26 rational approximation *)
let erf_approx x =
  let s = if x < 0.0 then -1.0 else 1.0 in
  let x = Float.abs x in
  let t = 1.0 /. (1.0 +. (0.3275911 *. x)) in
  let y =
    1.0
    -. (((((1.061405429 *. t -. 1.453152027) *. t) +. 1.421413741) *. t -. 0.284496736)
         *. t +. 0.254829592)
       *. t *. exp (-.x *. x)
  in
  s *. y

let unop op v =
  match (op : Expr.unop) with
  | Neg -> ( match v with I n -> I (-n) | F f -> F (-.f))
  | Not -> of_bool (not (truthy v))
  | Exp -> F (exp (to_float v))
  | Log -> F (log (to_float v))
  | Sqrt -> F (sqrt (to_float v))
  | Rsqrt -> F (1.0 /. sqrt (to_float v))
  | Tanh -> F (tanh (to_float v))
  | Erf -> F (erf_approx (to_float v))
  | Abs -> ( match v with I n -> I (abs n) | F f -> F (Float.abs f))
  | Recip -> F (1.0 /. to_float v)
  | Floor -> F (Float.floor (to_float v))

(* the float-to-float function of the unops that always produce [F _] *)
let float_unop op : float -> float =
  match (op : Expr.unop) with
  | Exp -> exp
  | Log -> log
  | Sqrt -> sqrt
  | Rsqrt -> fun x -> 1.0 /. sqrt x
  | Tanh -> tanh
  | Erf -> erf_approx
  | Recip -> fun x -> 1.0 /. x
  | Floor -> Float.floor
  | Neg | Not | Abs -> invalid_arg "float_unop"

(* ---- fibers ------------------------------------------------------------ *)

type _ Effect.t += Barrier : unit Effect.t

let is_thread_axis = function
  | Axis.Thread_x | Axis.Thread_y | Axis.Thread_z | Axis.Core_id -> true
  | Axis.Block_x | Axis.Block_y | Axis.Block_z | Axis.Task_id | Axis.Cluster_id -> false

type fiber_state = Done | Suspended of (unit -> fiber_state)

let run_fiber_group fibers =
  let open Effect.Deep in
  let start f =
    match_with f ()
      { retc = (fun () -> Done);
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Barrier ->
              Some
                (fun (k : (a, _) continuation) -> Suspended (fun () -> continue k ()))
            | _ -> None)
      }
  in
  (* reverse order within each round deterministically exposes
     missing-barrier races *)
  let rec rounds states =
    let pending =
      List.filter_map (function Done -> None | Suspended r -> Some r) states
    in
    if pending <> [] then rounds (List.rev_map (fun r -> r ()) pending)
  in
  rounds (List.rev_map start fibers)

(* ---- intrinsic semantics (shared by both engines) ---------------------- *)

let intrinsic_exec stats ~name ~(op : Intrin.op) ~dst_t ~dname ~dst_off ~srcs ~params ~fparam =
  let src n =
    if n < Array.length srcs then srcs.(n) else err "intrinsic %s: missing source %d" name n
  in
  let param n =
    if n < Array.length params then params.(n)
    else err "intrinsic %s: missing parameter %d" name n
  in
  let map2 f =
    let len = param 0 in
    let at, an, ao = src 0 in
    let bt, bn, bo = src 1 in
    for k = 0 to len - 1 do
      buf_set dst_t dname (dst_off + k) (f (buf_get at an (ao + k)) (buf_get bt bn (bo + k)))
    done;
    stats.intrinsic_elems <- stats.intrinsic_elems + len
  in
  let map1 f =
    let len = param 0 in
    let at, an, ao = src 0 in
    for k = 0 to len - 1 do
      buf_set dst_t dname (dst_off + k) (f (buf_get at an (ao + k)))
    done;
    stats.intrinsic_elems <- stats.intrinsic_elems + len
  in
  match op with
  | Vec_add -> map2 ( +. )
  | Vec_sub -> map2 ( -. )
  | Vec_mul -> map2 ( *. )
  | Vec_max -> map2 Float.max
  | Vec_min -> map2 Float.min
  | Vec_exp -> map1 exp
  | Vec_log -> map1 log
  | Vec_sqrt -> map1 sqrt
  | Vec_recip -> map1 (fun x -> 1.0 /. x)
  | Vec_tanh -> map1 tanh
  | Vec_erf -> map1 erf_approx
  | Vec_relu -> map1 (fun x -> Float.max x 0.0)
  | Vec_sigmoid -> map1 (fun x -> 1.0 /. (1.0 +. exp (-.x)))
  | Vec_gelu -> map1 (fun x -> 0.5 *. x *. (1.0 +. erf_approx (x *. 0.7071067811865476)))
  | Vec_sign -> map1 (fun x -> if x > 0.0 then 1.0 else if x < 0.0 then -1.0 else 0.0)
  | Vec_copy -> map1 Fun.id
  | Vec_scale ->
    (* the scalar parameter may be float-valued: re-evaluated via [fparam] *)
    let len = param 0 in
    let s = fparam () in
    let at, an, ao = src 0 in
    for k = 0 to len - 1 do
      buf_set dst_t dname (dst_off + k) (buf_get at an (ao + k) *. s)
    done;
    stats.intrinsic_elems <- stats.intrinsic_elems + len
  | Vec_adds ->
    let len = param 0 in
    let s = fparam () in
    let at, an, ao = src 0 in
    for k = 0 to len - 1 do
      buf_set dst_t dname (dst_off + k) (buf_get at an (ao + k) +. s)
    done;
    stats.intrinsic_elems <- stats.intrinsic_elems + len
  | Vec_fill ->
    let len = param 0 in
    let s = fparam () in
    for k = 0 to len - 1 do
      buf_set dst_t dname (dst_off + k) s
    done;
    stats.intrinsic_elems <- stats.intrinsic_elems + len
  | Vec_reduce_sum ->
    let len = param 0 in
    let at, an, ao = src 0 in
    let acc = ref 0.0 in
    for k = 0 to len - 1 do
      acc := !acc +. buf_get at an (ao + k)
    done;
    buf_set dst_t dname dst_off !acc;
    stats.intrinsic_elems <- stats.intrinsic_elems + len
  | Vec_reduce_max ->
    let len = param 0 in
    if len <= 0 then err "vec_reduce_max: empty input";
    let at, an, ao = src 0 in
    let acc = ref (buf_get at an ao) in
    for k = 1 to len - 1 do
      acc := Float.max !acc (buf_get at an (ao + k))
    done;
    buf_set dst_t dname dst_off !acc;
    stats.intrinsic_elems <- stats.intrinsic_elems + len
  | Mma | Mlp ->
    let m = param 0 and k = param 1 and n = param 2 in
    let at, an, ao = src 0 in
    let bt, bn, bo = src 1 in
    for r = 0 to m - 1 do
      for c = 0 to n - 1 do
        let acc = ref (buf_get dst_t dname (dst_off + (r * n) + c)) in
        for l = 0 to k - 1 do
          acc :=
            !acc +. (buf_get at an (ao + (r * k) + l) *. buf_get bt bn (bo + (l * n) + c))
        done;
        buf_set dst_t dname (dst_off + (r * n) + c) !acc
      done
    done;
    stats.intrinsic_elems <- stats.intrinsic_elems + (m * n * k)
  | Conv2d ->
    let co = param 0 and ci = param 1 and kh = param 2 and kw = param 3 in
    let ho = param 4 and wo = param 5 and stride = param 6 in
    let wi = ((wo - 1) * stride) + kw in
    let it, iname, io = src 0 in
    let wt, wname, wo_ = src 1 in
    for oh = 0 to ho - 1 do
      for ow = 0 to wo - 1 do
        for oc = 0 to co - 1 do
          let acc = ref (buf_get dst_t dname (dst_off + (((oh * wo) + ow) * co) + oc)) in
          for r = 0 to kh - 1 do
            for q = 0 to kw - 1 do
              for c = 0 to ci - 1 do
                let iv =
                  buf_get it iname
                    (io + (((((oh * stride) + r) * wi) + (ow * stride) + q) * ci) + c)
                in
                let wv = buf_get wt wname (wo_ + (((((oc * kh) + r) * kw) + q) * ci) + c) in
                acc := !acc +. (iv *. wv)
              done
            done
          done;
          buf_set dst_t dname (dst_off + (((oh * wo) + ow) * co) + oc) !acc
        done
      done
    done;
    stats.intrinsic_elems <- stats.intrinsic_elems + (ho * wo * co * kh * kw * ci)
  | Dp4a ->
    let len = param 0 in
    if len mod 4 <> 0 then err "dp4a: length %d not a multiple of 4" len;
    let at, an, ao = src 0 in
    let bt, bn, bo = src 1 in
    for g = 0 to (len / 4) - 1 do
      let acc = ref (buf_get dst_t dname (dst_off + g)) in
      for j = 0 to 3 do
        acc :=
          !acc
          +. (buf_get at an (ao + (g * 4) + j) *. buf_get bt bn (bo + (g * 4) + j))
      done;
      buf_set dst_t dname (dst_off + g) !acc
    done;
    stats.intrinsic_elems <- stats.intrinsic_elems + len

(* ---- profiling --------------------------------------------------------- *)

module Trace = Xpiler_obs.Trace

let fresh_stats () = { steps = 0; stores = 0; intrinsic_elems = 0; memcpy_elems = 0; barriers = 0 }

type receipt = { stats : stats; traffic : (string * int) list option; error : string option }

let traffic_list =
  Option.map (fun tbl -> List.sort compare (Hashtbl.fold (fun buf n acc -> (buf, n) :: acc) tbl []))

(* profiling hook: per-run op counts and per-buffer write traffic, emitted
   to the ambient tracer so unit-test and localization executions show up
   in the per-translation trace *)
let profile stats traffic =
  if Trace.enabled () then begin
    Trace.count "interp.runs";
    Trace.count ~n:stats.steps "interp.steps";
    Trace.count ~n:stats.stores "interp.stores";
    Trace.count ~n:stats.intrinsic_elems "interp.intrinsic_elems";
    Trace.count ~n:stats.memcpy_elems "interp.memcpy_elems";
    Trace.count ~n:stats.barriers "interp.barriers";
    Option.iter (List.iter (fun (buf, n) -> Trace.count ~n ("interp.traffic." ^ buf))) traffic
  end

let replay r = profile r.stats r.traffic

(* ---- the closure compiler ---------------------------------------------- *)

(* [ints] holds the variables proven always-integer (loop counters, int lets)
   and [floats] those proven always-float (accumulators): writing an unboxed
   array slot allocates nothing and skips the generational write barrier
   that boxed [value array] writes pay on every loop iteration *)
type frame = {
  scalars : value array;
  ints : int array;
  floats : float array;
  bufs : Tensor.t array;
}

type slot = Scalar_slot of int | Buffer_slot of int

type t = {
  code : ctx -> frame -> unit;
  nscalars : int;
  nints : int;
  nfloats : int;
  nbufs : int;
  param_binds : (Kernel.param * slot) list;
}

(* compile-time environment: binding sites resolved to slots; shadowing =
   most recent binding first, exactly the tree-walker's cons discipline.
   [Unboxed] slots live in [frame.ints]: every runtime write to them is an
   integer (loop counters, int-valued lets never reassigned), which licenses
   the unboxed integer compilation path below. [Fslot] slots live in
   [frame.floats]: every runtime write to them is proven to be an [F _],
   which licenses the unboxed float path. *)
type sref = Boxed of int | Fslot of int | Unboxed of int

type cenv = { svars : (string * sref) list; bvars : (string * int) list }

let dummy_tensor = Tensor.create 0

(* [float_valued is_float_var e]: evaluation provably yields [F _], given
   that every variable satisfying [is_float_var] holds an [F _]. Transcendental
   unops always do; arithmetic does if either operand does (the mixed case
   takes [float_binop]). *)
let rec float_valued is_float_var (e : Expr.t) =
  match e with
  | Float _ -> true
  | Int _ | Load _ -> false
  | Var x -> is_float_var x
  | Binop ((Eq | Ne | Lt | Le | Gt | Ge | And | Or), _, _) -> false
  | Binop (_, l, r) -> float_valued is_float_var l || float_valued is_float_var r
  | Unop ((Exp | Log | Sqrt | Rsqrt | Tanh | Erf | Recip | Floor), _) -> true
  | Unop ((Neg | Abs), x) -> float_valued is_float_var x
  | Unop (Not, _) -> false
  | Select (_, t, f) -> float_valued is_float_var t && float_valued is_float_var f
  | Cast (d, _) -> Dtype.is_float d

(* The names that only ever hold floats: the greatest set of Let/Assign
   targets, excluding parameter and loop-variable names, such that every
   Let/Assign value of a member is [float_valued] assuming the members are.
   Start from all targets and drop violators until none is left. *)
let float_names (k : Kernel.t) =
  let excluded = Hashtbl.create 16 and defs = ref [] in
  List.iter (fun (p : Kernel.param) -> Hashtbl.replace excluded p.name ()) k.Kernel.params;
  Stmt.iter
    (fun s ->
      match s with
      | Stmt.Let { var; value } | Stmt.Assign { var; value } -> defs := (var, value) :: !defs
      | Stmt.For { var; _ } -> Hashtbl.replace excluded var ()
      | _ -> ())
    k.Kernel.body;
  let names = Hashtbl.create 16 in
  List.iter
    (fun (v, _) -> if not (Hashtbl.mem excluded v) then Hashtbl.replace names v ())
    !defs;
  let rec shrink () =
    let violators =
      List.filter
        (fun (v, e) -> Hashtbl.mem names v && not (float_valued (Hashtbl.mem names) e))
        !defs
    in
    if violators <> [] then begin
      List.iter (fun (v, _) -> Hashtbl.remove names v) violators;
      shrink ()
    end
  in
  shrink ();
  names

let compile (k : Kernel.t) : t =
  let nscalars = ref 0 and nints = ref 0 and nfloats = ref 0 and nbufs = ref 0 in
  let fresh r =
    let s = !r in
    incr r;
    s
  in
  let fresh_scalar () = fresh nscalars in
  let fresh_int () = fresh nints in
  let fresh_float () = fresh nfloats in
  let fresh_buf () = fresh nbufs in
  let float_names = float_names k in
  (* names ever targeted by an Assign anywhere in the kernel: a variable not
     in this set whose binding only ever writes integers can never observe a
     float, so expressions over it compile to unboxed int closures *)
  let assigned = Hashtbl.create 16 in
  Stmt.iter
    (function Stmt.Assign { var; _ } -> Hashtbl.replace assigned var () | _ -> ())
    k.Kernel.body;
  let never_assigned v = not (Hashtbl.mem assigned v) in
  (* a reference to a buffer name: raising closure when unbound, so unbound
     names fail at execution time (a never-executed branch must not fail) *)
  let buf_slot cenv b : frame -> Tensor.t =
    match List.assoc_opt b cenv.bvars with
    | Some s -> fun fr -> fr.bufs.(s)
    | None -> fun _ -> err "unbound buffer %s" b
  in
  (* [static_int cenv e]: evaluation provably yields [I _]. Comparisons and
     logical ops always do ([of_bool]); arithmetic does iff both operands do. *)
  let rec static_int cenv (e : Expr.t) =
    match e with
    | Int _ -> true
    | Float _ | Load _ -> false
    | Var x -> ( match List.assoc_opt x cenv.svars with Some (Unboxed _) -> true | _ -> false)
    | Binop ((Eq | Ne | Lt | Le | Gt | Ge | And | Or), _, _) -> true
    | Binop (_, l, r) -> static_int cenv l && static_int cenv r
    | Unop (Not, _) -> true
    | Unop ((Neg | Abs), x) -> static_int cenv x
    | Unop (_, _) -> false
    | Select (_, t, f) -> static_int cenv t && static_int cenv f
    | Cast (d, _) -> not (Dtype.is_float d)
  in
  (* [static_float cenv e]: evaluation provably yields [F _]. Matters only as
     the licence to evaluate a [Binop]'s operands unboxed: an [I , I] pair
     must keep taking the [int_binop] path, so only a proof that one side is
     [F] lets both sides skip boxing. *)
  let static_float cenv =
    float_valued (fun x ->
        match List.assoc_opt x cenv.svars with Some (Fslot _) -> true | _ -> false)
  in
  let rec comp cenv (e : Expr.t) : frame -> value =
    match e with
    | Int n ->
      let v = I n in
      fun _ -> v
    | Float f ->
      let v = F f in
      fun _ -> v
    | Var x -> (
      match List.assoc_opt x cenv.svars with
      | Some (Boxed s) -> fun fr -> fr.scalars.(s)
      | Some (Fslot s) -> fun fr -> F (Array.unsafe_get fr.floats s)
      | Some (Unboxed s) -> fun fr -> I fr.ints.(s)
      | None -> fun _ -> err "unbound variable %s" x)
    | Load (b, i) ->
      let ci = comp_int cenv i in
      let get = buf_slot cenv b in
      fun fr ->
        let idx = ci fr in
        let t = get fr in
        let v = buf_get t b idx in
        if Dtype.is_float t.Tensor.dtype then F v else I (int_of_float v)
    | Binop _ when static_int cenv e ->
      (* the whole integer subtree evaluates unboxed; one box at the root *)
      let ci = comp_iint cenv e in
      fun fr -> I (ci fr)
    | Binop (op, l, r) ->
      let cl = comp cenv l in
      let cr = comp cenv r in
      (* op resolved at compile time for the hot arithmetic cases; the
         int/int → int_binop, otherwise-float dispatch is unchanged *)
      (match op with
      | Add ->
        fun fr ->
          let a = cl fr in
          let b = cr fr in
          (match (a, b) with
          | I x, I y -> I (x + y)
          | F x, F y -> F (x +. y)
          | _ -> F (to_float a +. to_float b))
      | Sub ->
        fun fr ->
          let a = cl fr in
          let b = cr fr in
          (match (a, b) with
          | I x, I y -> I (x - y)
          | F x, F y -> F (x -. y)
          | _ -> F (to_float a -. to_float b))
      | Mul ->
        fun fr ->
          let a = cl fr in
          let b = cr fr in
          (match (a, b) with
          | I x, I y -> I (x * y)
          | F x, F y -> F (x *. y)
          | _ -> F (to_float a *. to_float b))
      | _ ->
        fun fr ->
          let a = cl fr in
          let b = cr fr in
          (match (a, b) with
          | I x, I y -> int_binop op x y
          | _ -> float_binop op (to_float a) (to_float b)))
    | Unop (((Exp | Log | Sqrt | Rsqrt | Tanh | Erf | Recip | Floor) as op), x) ->
      (* [unop] converts the operand with [to_float] for these, so the operand
         evaluates unboxed; only the result is boxed *)
      let cx = comp_ffloat cenv x in
      let f = float_unop op in
      fun fr -> F (f (cx fr))
    | Unop (op, x) ->
      let cx = comp cenv x in
      fun fr -> unop op (cx fr)
    | Select (c, t, f) ->
      let cc = comp cenv c in
      let ct = comp cenv t in
      let cf = comp cenv f in
      fun fr -> if truthy (cc fr) then ct fr else cf fr
    | Cast (d, x) ->
      if Dtype.is_float d then begin
        let cx = comp_ffloat cenv x in
        fun fr -> F (cx fr)
      end
      else begin
        let cx = comp cenv x in
        fun fr -> I (to_int (cx fr))
      end
  (* unboxed integer compilation: closures of type [frame -> int], no [value]
     allocation anywhere in the subtree. Only reached via [static_int] (or the
     final catch-all, which unboxes a generic evaluation). Evaluation order and
     error behaviour replicate [int_binop] / [unop] exactly. *)
  and comp_iint cenv (e : Expr.t) : frame -> int =
    match e with
    | Int n -> fun _ -> n
    | Var x -> (
      match List.assoc_opt x cenv.svars with
      | Some (Unboxed s) -> fun fr -> Array.unsafe_get fr.ints s
      | Some (Boxed s) -> fun fr -> to_int fr.scalars.(s)
      | Some (Fslot s) -> fun fr -> int_of_float (Array.unsafe_get fr.floats s)
      | None -> fun _ -> err "unbound variable %s" x)
    | Binop (op, l, r) when static_int cenv l && static_int cenv r ->
      let il = comp_iint cenv l in
      let ir = comp_iint cenv r in
      (* each case written out so the arithmetic is a direct instruction in
         the closure body, not an indirect call through a shared combinator *)
      (match op with
      | Add ->
        fun fr ->
          let x = il fr in
          let y = ir fr in
          x + y
      | Sub ->
        fun fr ->
          let x = il fr in
          let y = ir fr in
          x - y
      | Mul ->
        fun fr ->
          let x = il fr in
          let y = ir fr in
          x * y
      | Div ->
        fun fr ->
          let x = il fr in
          let y = ir fr in
          if y = 0 then err "integer division by zero" else x / y
      | Mod ->
        fun fr ->
          let x = il fr in
          let y = ir fr in
          if y = 0 then err "integer modulo by zero" else x mod y
      | Min ->
        fun fr ->
          let x = il fr in
          let y = ir fr in
          if x <= y then x else y
      | Max ->
        fun fr ->
          let x = il fr in
          let y = ir fr in
          if x >= y then x else y
      | Eq ->
        fun fr ->
          let x = il fr in
          let y = ir fr in
          if x = y then 1 else 0
      | Ne ->
        fun fr ->
          let x = il fr in
          let y = ir fr in
          if x <> y then 1 else 0
      | Lt ->
        fun fr ->
          let x = il fr in
          let y = ir fr in
          if x < y then 1 else 0
      | Le ->
        fun fr ->
          let x = il fr in
          let y = ir fr in
          if x <= y then 1 else 0
      | Gt ->
        fun fr ->
          let x = il fr in
          let y = ir fr in
          if x > y then 1 else 0
      | Ge ->
        fun fr ->
          let x = il fr in
          let y = ir fr in
          if x >= y then 1 else 0
      | And ->
        fun fr ->
          let x = il fr in
          let y = ir fr in
          if x <> 0 && y <> 0 then 1 else 0
      | Or ->
        fun fr ->
          let x = il fr in
          let y = ir fr in
          if x <> 0 || y <> 0 then 1 else 0)
    | Binop (op, l, r) ->
      (* comparisons/logic over non-static operands: the result is still an
         int, but the operands need the generic int/float dispatch (a float
         comparison must compare as floats). Must be handled here, not by the
         catch-all — [comp] routes every static_int binop back to this
         function, and arithmetic is static only when both sides are *)
      let cl = comp cenv l in
      let cr = comp cenv r in
      fun fr ->
        let a = cl fr in
        let b = cr fr in
        to_int
          (match (a, b) with
          | I x, I y -> int_binop op x y
          | _ -> float_binop op (to_float a) (to_float b))
    | Unop (Neg, x) when static_int cenv x ->
      let ix = comp_iint cenv x in
      fun fr -> -ix fr
    | Unop (Abs, x) when static_int cenv x ->
      let ix = comp_iint cenv x in
      fun fr -> abs (ix fr)
    | Unop (Not, x) ->
      let cx = comp cenv x in
      fun fr -> if truthy (cx fr) then 0 else 1
    | Select (c, t, f) when static_int cenv t && static_int cenv f ->
      let cc = comp cenv c in
      let it = comp_iint cenv t in
      let if_ = comp_iint cenv f in
      fun fr -> if truthy (cc fr) then it fr else if_ fr
    | _ ->
      let c = comp cenv e in
      fun fr -> to_int (c fr)
  and comp_int cenv (e : Expr.t) : frame -> int =
    match e with
    | Int n -> fun _ -> n
    | _ when static_int cenv e -> comp_iint cenv e
    | _ ->
      let c = comp cenv e in
      fun fr -> to_int (c fr)
  (* unboxed float compilation: [comp_ffloat cenv e fr = to_float (comp cenv
     e fr)] by construction, without boxing where representable. Used wherever
     the consumer applies [to_float] anyway (store values, float unop
     operands, intrinsic scalar params), so only representation changes. *)
  and comp_ffloat cenv (e : Expr.t) : frame -> float =
    match e with
    | Int n ->
      let v = float_of_int n in
      fun _ -> v
    | Float f -> fun _ -> f
    | Var x -> (
      match List.assoc_opt x cenv.svars with
      | Some (Boxed s) -> fun fr -> to_float fr.scalars.(s)
      | Some (Fslot s) -> fun fr -> Array.unsafe_get fr.floats s
      | Some (Unboxed s) -> fun fr -> float_of_int (Array.unsafe_get fr.ints s)
      | None -> fun _ -> err "unbound variable %s" x)
    | Load (b, i) ->
      let ci = comp_int cenv i in
      let get = buf_slot cenv b in
      fun fr ->
        let idx = ci fr in
        let t = get fr in
        let v = buf_get t b idx in
        (* int dtypes truncate on load ([I (int_of_float v)] in [comp]) *)
        if Dtype.is_float t.Tensor.dtype then v else float_of_int (int_of_float v)
    | _ when static_int cenv e ->
      let ci = comp_iint cenv e in
      fun fr -> float_of_int (ci fr)
    | Binop (((Add | Sub | Mul | Div | Mod | Min | Max) as op), l, r)
      when static_float cenv l || static_float cenv r ->
      (* one side provably [F _]: the generic engine would take [float_binop]
         whatever the other side is, so both operands evaluate unboxed *)
      let fl = comp_ffloat cenv l in
      let frr = comp_ffloat cenv r in
      (match op with
      | Add ->
        fun fr ->
          let x = fl fr in
          let y = frr fr in
          x +. y
      | Sub ->
        fun fr ->
          let x = fl fr in
          let y = frr fr in
          x -. y
      | Mul ->
        fun fr ->
          let x = fl fr in
          let y = frr fr in
          x *. y
      | Div ->
        fun fr ->
          let x = fl fr in
          let y = frr fr in
          x /. y
      | Mod ->
        fun fr ->
          let x = fl fr in
          let y = frr fr in
          Float.rem x y
      | Min ->
        fun fr ->
          let x = fl fr in
          let y = frr fr in
          Float.min x y
      | Max ->
        fun fr ->
          let x = fl fr in
          let y = frr fr in
          Float.max x y
      | _ -> assert false)
    | Unop (((Exp | Log | Sqrt | Rsqrt | Tanh | Erf | Recip | Floor) as op), x) ->
      let cx = comp_ffloat cenv x in
      let f = float_unop op in
      fun fr -> f (cx fr)
    | Unop (Neg, x) when static_float cenv x ->
      let cx = comp_ffloat cenv x in
      fun fr -> -.cx fr
    | Unop (Abs, x) when static_float cenv x ->
      let cx = comp_ffloat cenv x in
      fun fr -> Float.abs (cx fr)
    | Select (c, t, f) when static_float cenv t && static_float cenv f ->
      let cc = comp cenv c in
      let ct = comp_ffloat cenv t in
      let cf = comp_ffloat cenv f in
      fun fr -> if truthy (cc fr) then ct fr else cf fr
    | _ ->
      let c = comp cenv e in
      fun fr -> to_float (c fr)
  in
  let rec comp_block cenv block : ctx -> frame -> unit =
    let codes =
      let _, rev =
        List.fold_left
          (fun (env, acc) st ->
            let env', c = comp_stmt env st in
            (env', c :: acc))
          (cenv, []) block
      in
      Array.of_list (List.rev rev)
    in
    match Array.length codes with
    | 0 -> fun _ _ -> ()
    | 1 -> codes.(0)
    | n ->
      fun ctx fr ->
        for i = 0 to n - 1 do
          (Array.unsafe_get codes i) ctx fr
        done
  and comp_stmt cenv (stmt : Stmt.t) : cenv * (ctx -> frame -> unit) =
    let cenv', body = comp_stmt_body cenv stmt in
    ( cenv',
      fun ctx fr ->
        let st = ctx.stats in
        st.steps <- st.steps + 1;
        if st.steps > ctx.fuel then err "fuel exhausted (non-terminating program?)";
        body ctx fr )
  and comp_stmt_body cenv (stmt : Stmt.t) : cenv * (ctx -> frame -> unit) =
    match stmt with
    | Stmt.Annot _ -> (cenv, fun _ _ -> ())
    | Stmt.Let { var; value } ->
      if static_int cenv value && never_assigned var then begin
        let civ = comp_iint cenv value in
        let s = fresh_int () in
        ({ cenv with svars = (var, Unboxed s) :: cenv.svars }, fun _ fr -> fr.ints.(s) <- civ fr)
      end
      else if Hashtbl.mem float_names var || (static_float cenv value && never_assigned var)
      then begin
        (* the value is an [F _]: storing its float is storing the value *)
        let cv = comp_ffloat cenv value in
        let s = fresh_float () in
        ( { cenv with svars = (var, Fslot s) :: cenv.svars },
          fun _ fr -> Array.unsafe_set fr.floats s (cv fr) )
      end
      else begin
        let cv = comp cenv value in
        let s = fresh_scalar () in
        ({ cenv with svars = (var, Boxed s) :: cenv.svars }, fun _ fr -> fr.scalars.(s) <- cv fr)
      end
    | Stmt.Assign { var; value } -> (
      match List.assoc_opt var cenv.svars with
      | Some (Boxed s) ->
        let cv = comp cenv value in
        (cenv, fun _ fr -> fr.scalars.(s) <- cv fr)
      | Some (Fslot s) -> (cenv, comp_assign_float cenv var s value)
      | Some (Unboxed _) ->
        (* unreachable: requires [never_assigned] over the whole kernel,
           which is name-based and thus covers every binding of [var] *)
        (cenv, fun _ _ -> err "assignment to unbound variable %s" var)
      | None -> (cenv, fun _ _ -> err "assignment to unbound variable %s" var))
    | Stmt.Store { buf; index; value } ->
      let get = buf_slot cenv buf in
      let ci = comp_int cenv index in
      let cv = comp_ffloat cenv value in
      ( cenv,
        fun ctx fr ->
          let t = get fr in
          let i = ci fr in
          let v = cv fr in
          (* int dtypes truncate: [float_of_int (to_int v)] in value terms *)
          let v =
            if Dtype.is_float t.Tensor.dtype then v else float_of_int (int_of_float v)
          in
          buf_set t buf i v;
          ctx.stats.stores <- ctx.stats.stores + 1;
          tally ctx buf 1;
          match ctx.trace with Some f -> f buf i v | None -> () )
    | Stmt.Alloc { buf; dtype; size; _ } ->
      let s = fresh_buf () in
      ( { cenv with bvars = (buf, s) :: cenv.bvars },
        fun _ fr -> fr.bufs.(s) <- Tensor.create ~dtype size )
    | Stmt.If { cond; then_; else_ } ->
      let cc = comp cenv cond in
      let ct = comp_block cenv then_ in
      let ce = comp_block cenv else_ in
      (cenv, fun ctx fr -> if truthy (cc fr) then ct ctx fr else ce ctx fr)
    | Stmt.Memcpy { dst; src; len } ->
      let gdst = buf_slot cenv dst.buf in
      let gsrc = buf_slot cenv src.buf in
      let cdoff = comp_int cenv dst.offset in
      let csoff = comp_int cenv src.offset in
      let clen = comp_int cenv len in
      let dname = dst.buf and sname = src.buf in
      ( cenv,
        fun ctx fr ->
          let dt = gdst fr in
          let st = gsrc fr in
          let doff = cdoff fr in
          let soff = csoff fr in
          let n = clen fr in
          if n < 0 then err "memcpy: negative length %d" n;
          for k = 0 to n - 1 do
            buf_set dt dname (doff + k) (buf_get st sname (soff + k))
          done;
          ctx.stats.memcpy_elems <- ctx.stats.memcpy_elems + n;
          tally ctx dname n )
    | Stmt.Intrinsic i ->
      let name = Intrin.op_name i.op in
      let gdst = buf_slot cenv i.dst.buf in
      let cdoff = comp_int cenv i.dst.offset in
      let csrcs =
        Array.of_list
          (List.map
             (fun (r : Intrin.buf_ref) -> (buf_slot cenv r.buf, r.buf, comp_int cenv r.offset))
             i.srcs)
      in
      let cparams = Array.of_list (List.map (comp_int cenv) i.params) in
      let cfparam =
        match i.params with
        | _ :: e :: _ -> comp_ffloat cenv e
        | _ -> fun _ -> err "%s: no scalar" name
      in
      let dname = i.dst.buf in
      let op = i.op in
      ( cenv,
        fun ctx fr ->
          let before = ctx.stats.intrinsic_elems in
          let dst_t = gdst fr in
          let dst_off = cdoff fr in
          let srcs =
            Array.map
              (fun (g, nm, co) ->
                let t = g fr in
                let o = co fr in
                (t, nm, o))
              csrcs
          in
          let params = Array.map (fun c -> c fr) cparams in
          intrinsic_exec ctx.stats ~name ~op ~dst_t ~dname ~dst_off ~srcs ~params
            ~fparam:(fun () -> cfparam fr);
          tally ctx dname (ctx.stats.intrinsic_elems - before) )
    | Stmt.Sync ->
      ( cenv,
        fun ctx _ ->
          ctx.stats.barriers <- ctx.stats.barriers + 1;
          try Effect.perform Barrier with Effect.Unhandled _ -> () )
    | Stmt.For { var; lo; extent; kind = Stmt.Parallel ax; body } when is_thread_axis ax ->
      (* collect the maximal immediately-nested chain of thread-parallel
         loops so a barrier synchronizes the whole thread block *)
      let rec chain acc body =
        match body with
        | [ Stmt.For { var; lo; extent; kind = Stmt.Parallel ax; body = inner } ]
          when is_thread_axis ax ->
          chain ((var, lo, extent) :: acc) inner
        | _ -> (List.rev acc, body)
      in
      let loops, innermost = chain [ (var, lo, extent) ] body in
      (* each loop's bounds compile in the scope of the outer chain vars *)
      let env, rev_loops =
        List.fold_left
          (fun (env, acc) (v, lo_e, ext_e) ->
            let clo = comp_int env lo_e in
            let cext = comp_int env ext_e in
            let r = if never_assigned v then Unboxed (fresh_int ()) else Boxed (fresh_scalar ()) in
            ({ env with svars = (v, r) :: env.svars }, (v, r, clo, cext) :: acc))
          (cenv, []) loops
      in
      let cloops = List.rev rev_loops in
      let cbody = comp_block env innermost in
      ( cenv,
        fun ctx fr ->
          let rec spawn fr = function
            | [] -> [ (fun () -> cbody ctx fr) ]
            | (v, r, clo, cext) :: rest ->
              let lo_v = clo fr in
              let ext_v = cext fr in
              if ext_v < 0 then err "negative loop extent in %s" v;
              List.concat
                (List.init ext_v (fun i ->
                     (* per-fiber frame: private scalars and buffer bindings,
                        shared tensors (allocs before the chain are shared;
                        allocs inside rebind the fiber's own slot copy) *)
                     let fr' =
                       { scalars = Array.copy fr.scalars;
                         ints = Array.copy fr.ints;
                         floats = Array.copy fr.floats;
                         bufs = Array.copy fr.bufs
                       }
                     in
                     (match r with
                     | Unboxed s -> fr'.ints.(s) <- lo_v + i
                     | Boxed s -> fr'.scalars.(s) <- I (lo_v + i)
                     | Fslot _ -> assert false (* loop variables are never float slots *));
                     spawn fr' rest))
          in
          run_fiber_group (spawn fr cloops) )
    | Stmt.For { var; lo; extent; body; _ } ->
      let clo = comp_int cenv lo in
      let cext = comp_int cenv extent in
      if never_assigned var then begin
        let s = fresh_int () in
        let cbody = comp_block { cenv with svars = (var, Unboxed s) :: cenv.svars } body in
        ( cenv,
          fun ctx fr ->
            let lo_v = clo fr in
            let ext_v = cext fr in
            if ext_v < 0 then err "negative loop extent in %s" var;
            for i = lo_v to lo_v + ext_v - 1 do
              Array.unsafe_set fr.ints s i;
              cbody ctx fr
            done )
      end
      else begin
        let s = fresh_scalar () in
        let cbody = comp_block { cenv with svars = (var, Boxed s) :: cenv.svars } body in
        ( cenv,
          fun ctx fr ->
            let lo_v = clo fr in
            let ext_v = cext fr in
            if ext_v < 0 then err "negative loop extent in %s" var;
            for i = lo_v to lo_v + ext_v - 1 do
              fr.scalars.(s) <- I i;
              cbody ctx fr
            done )
      end
  (* An assignment to a float slot. Only names in [float_names] are assigned
     float slots, so the value is an [F _] and storing its float is exact.
     [acc = acc + a[i] * b[j]] (either operand order) gets one fused closure:
     the generic one boxes both loads and the product on every iteration. It
     evaluates in the generic order (index, buffer, bounds check for [a],
     then for [b]), so errors are unchanged, and takes the unboxed path only
     when both tensors hold floats: int-dtype loads fall back to the generic
     closure, whose [I * I] product keeps [int_binop] semantics. *)
  and comp_assign_float cenv var s (value : Expr.t) : ctx -> frame -> unit =
    let generic =
      let cv = comp_ffloat cenv value in
      fun _ fr -> Array.unsafe_set fr.floats s (cv fr)
    in
    let fused ~acc_first a ia b ib =
      let cia = comp_int cenv ia and cib = comp_int cenv ib in
      let geta = buf_slot cenv a and getb = buf_slot cenv b in
      fun ctx fr ->
        let i = cia fr in
        let ta = geta fr in
        let da = ta.Tensor.data in
        if i < 0 || i >= Array.length da then oob_read a i (Array.length da);
        let j = cib fr in
        let tb = getb fr in
        let db = tb.Tensor.data in
        if j < 0 || j >= Array.length db then oob_read b j (Array.length db);
        if Dtype.is_float ta.Tensor.dtype && Dtype.is_float tb.Tensor.dtype then begin
          let p = Array.unsafe_get da i *. Array.unsafe_get db j in
          let acc = Array.unsafe_get fr.floats s in
          Array.unsafe_set fr.floats s (if acc_first then acc +. p else p +. acc)
        end
        else generic ctx fr
    in
    match value with
    | Binop (Add, Var x, Binop (Mul, Load (a, ia), Load (b, ib))) when String.equal x var ->
      fused ~acc_first:true a ia b ib
    | Binop (Add, Binop (Mul, Load (a, ia), Load (b, ib)), Var x) when String.equal x var ->
      fused ~acc_first:false a ia b ib
    | _ -> generic
  in
  let cenv0, rev_binds =
    List.fold_left
      (fun (cenv, binds) (p : Kernel.param) ->
        if p.is_buffer then begin
          let s = fresh_buf () in
          ({ cenv with bvars = (p.name, s) :: cenv.bvars }, (p, Buffer_slot s) :: binds)
        end
        else begin
          (* scalar parameters may be bound to floats at call time *)
          let s = fresh_scalar () in
          ({ cenv with svars = (p.name, Boxed s) :: cenv.svars }, (p, Scalar_slot s) :: binds)
        end)
      ({ svars = []; bvars = [] }, [])
      k.Kernel.params
  in
  let code = comp_block cenv0 k.Kernel.body in
  { code;
    nscalars = !nscalars;
    nints = !nints;
    nfloats = !nfloats;
    nbufs = !nbufs;
    param_binds = List.rev rev_binds
  }

let bind_args c args =
  let scalars = Array.make (max c.nscalars 1) (I 0) in
  let ints = Array.make (max c.nints 1) 0 in
  let floats = Array.make (max c.nfloats 1) 0.0 in
  let bufs = Array.make (max c.nbufs 1) dummy_tensor in
  List.iter
    (fun ((p : Kernel.param), slot) ->
      match List.assoc_opt p.name args with
      | None -> err "missing argument for parameter %s" p.name
      | Some (Buf t) -> (
        match slot with
        | Buffer_slot s -> bufs.(s) <- t
        | Scalar_slot _ -> err "parameter %s is scalar but got a buffer" p.name)
      | Some (Scalar_int n) -> (
        match slot with
        | Scalar_slot s -> scalars.(s) <- I n
        | Buffer_slot _ -> err "parameter %s is a buffer but got a scalar" p.name)
      | Some (Scalar_float f) -> (
        match slot with
        | Scalar_slot s -> scalars.(s) <- F f
        | Buffer_slot _ -> err "parameter %s is a buffer but got a scalar" p.name))
    c.param_binds;
  { scalars; ints; floats; bufs }

let run_receipt ?(fuel = 200_000_000) ?trace c args =
  let stats = fresh_stats () in
  let traffic = if Trace.enabled () then Some (Hashtbl.create 8) else None in
  let ctx = { stats; fuel; trace; traffic } in
  let frame = bind_args c args in
  let error =
    match c.code ctx frame with
    | () -> None
    | exception Runtime_error m -> Some m
    | exception e ->
      profile stats (traffic_list traffic);
      raise e
  in
  let r = { stats; traffic = traffic_list traffic; error } in
  replay r;
  r

let run ?fuel ?trace c args =
  let r = run_receipt ?fuel ?trace c args in
  match r.error with Some m -> raise (Runtime_error m) | None -> r.stats

(* ---- bounded compile memo ---------------------------------------------- *)

module Cache = Xpiler_util.Lru.Make (struct
  type t = Kernel.t

  let equal = Kernel.equal
  let hash = Kernel.hash
end)

let cache_limit = 4096
let cache : t Cache.t = Cache.create cache_limit
let cache_mutex = Mutex.create ()

module Metrics = Xpiler_obs.Metrics

(* Stable: [cached] is called from the master domain's unit-test path, so
   hit/miss counts are a pure function of the workload. *)
let m_cache_hits =
  Metrics.counter ~help:"compile cache lookups by result" ~labels:[ ("result", "hit") ]
    "xpiler_compile_cache_lookups_total"

let m_cache_misses =
  Metrics.counter ~labels:[ ("result", "miss") ] "xpiler_compile_cache_lookups_total"

let m_cache_evictions =
  Metrics.counter ~help:"least-recently-used entries dropped at capacity"
    "xpiler_compile_cache_evictions_total"

let cached k =
  Mutex.protect cache_mutex (fun () ->
      match Cache.find cache k with
      | Some c ->
        Metrics.inc m_cache_hits;
        c
      | None ->
        Metrics.inc m_cache_misses;
        let c = compile k in
        if Cache.replace cache k c then Metrics.inc m_cache_evictions;
        c)
