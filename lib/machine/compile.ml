open Xpiler_ir

(* The fast evaluation engine: lowers a kernel once into OCaml closures over
   slot-indexed frames (arrays, not assoc lists). The runtime pieces shared
   with the tree-walking reference interpreter — value/stat types, scalar
   operator semantics, intrinsic semantics, the barrier effect and fiber
   scheduler — live here so both engines agree by construction.

   The unit of work is the statement, except in an innermost loop: a loop
   whose body is one float store or one float-slot update over indices
   affine in its counter is also compiled to one OCaml [for] loop (see
   [lower_loop]). That loop runs only when a check at loop entry proves
   that no iteration can fail: no store trace hook, enough fuel for every
   iteration, float tensors, and every index of every iteration in range.
   Otherwise the per-element closures run, so outputs, error messages, fuel
   exhaustion and step counts are those of the statement-at-a-time engine. *)

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

(* Operands live in slots the caller owns: source [n] is [srcs.(n) = (b,
   nm, o)], the tensor [bufs.(b)] named [nm] at offset [ints.(o)], and
   parameter [n] is [ints.(params.(n))]. The compiled engine points them
   into its frame, so an execution builds no operand arrays. [fparam env]
   evaluates the second parameter as a float. Each elementwise op is its
   own loop: without flambda a float closure called per element boxes. *)
let intrinsic_run stats ~name ~(op : Intrin.op) ~dst_t ~dname ~dst_off ~bufs ~ints ~srcs ~params
    ~fparam env =
  let src n =
    if n < Array.length srcs then Array.unsafe_get srcs n
    else err "intrinsic %s: missing source %d" name n
  in
  let param n =
    if n < Array.length params then ints.(params.(n))
    else err "intrinsic %s: missing parameter %d" name n
  in
  let tensor (b, _, _) = bufs.(b) and offset (_, _, o) = ints.(o) in
  match op with
  | Vec_add | Vec_sub | Vec_mul | Vec_max | Vec_min ->
    let len = param 0 in
    let ((_, an, _) as a) = src 0 in
    let ((_, bn, _) as b) = src 1 in
    let at = tensor a and ao = offset a and bt = tensor b and bo = offset b in
    (* the second operand is read first: when both reads are out of
       bounds, the error names the second *)
    (match op with
    | Vec_add ->
      for k = 0 to len - 1 do
        let y = buf_get bt bn (bo + k) in
        let x = buf_get at an (ao + k) in
        buf_set dst_t dname (dst_off + k) (x +. y)
      done
    | Vec_sub ->
      for k = 0 to len - 1 do
        let y = buf_get bt bn (bo + k) in
        let x = buf_get at an (ao + k) in
        buf_set dst_t dname (dst_off + k) (x -. y)
      done
    | Vec_mul ->
      for k = 0 to len - 1 do
        let y = buf_get bt bn (bo + k) in
        let x = buf_get at an (ao + k) in
        buf_set dst_t dname (dst_off + k) (x *. y)
      done
    | Vec_max ->
      for k = 0 to len - 1 do
        let y = buf_get bt bn (bo + k) in
        let x = buf_get at an (ao + k) in
        buf_set dst_t dname (dst_off + k) (Float.max x y)
      done
    | _ ->
      for k = 0 to len - 1 do
        let y = buf_get bt bn (bo + k) in
        let x = buf_get at an (ao + k) in
        buf_set dst_t dname (dst_off + k) (Float.min x y)
      done);
    stats.intrinsic_elems <- stats.intrinsic_elems + len
  | Vec_exp | Vec_log | Vec_sqrt | Vec_recip | Vec_tanh | Vec_erf | Vec_relu | Vec_sigmoid
  | Vec_gelu | Vec_sign | Vec_copy ->
    let len = param 0 in
    let ((_, an, _) as a) = src 0 in
    let at = tensor a and ao = offset a in
    (match op with
    | Vec_exp ->
      for k = 0 to len - 1 do
        buf_set dst_t dname (dst_off + k) (exp (buf_get at an (ao + k)))
      done
    | Vec_log ->
      for k = 0 to len - 1 do
        buf_set dst_t dname (dst_off + k) (log (buf_get at an (ao + k)))
      done
    | Vec_sqrt ->
      for k = 0 to len - 1 do
        buf_set dst_t dname (dst_off + k) (sqrt (buf_get at an (ao + k)))
      done
    | Vec_recip ->
      for k = 0 to len - 1 do
        buf_set dst_t dname (dst_off + k) (1.0 /. buf_get at an (ao + k))
      done
    | Vec_tanh ->
      for k = 0 to len - 1 do
        buf_set dst_t dname (dst_off + k) (tanh (buf_get at an (ao + k)))
      done
    | Vec_erf ->
      for k = 0 to len - 1 do
        buf_set dst_t dname (dst_off + k) (erf_approx (buf_get at an (ao + k)))
      done
    | Vec_relu ->
      for k = 0 to len - 1 do
        buf_set dst_t dname (dst_off + k) (Float.max (buf_get at an (ao + k)) 0.0)
      done
    | Vec_sigmoid ->
      for k = 0 to len - 1 do
        buf_set dst_t dname (dst_off + k) (1.0 /. (1.0 +. exp (-.buf_get at an (ao + k))))
      done
    | Vec_gelu ->
      for k = 0 to len - 1 do
        let x = buf_get at an (ao + k) in
        buf_set dst_t dname (dst_off + k)
          (0.5 *. x *. (1.0 +. erf_approx (x *. 0.7071067811865476)))
      done
    | Vec_sign ->
      for k = 0 to len - 1 do
        let x = buf_get at an (ao + k) in
        buf_set dst_t dname (dst_off + k)
          (if x > 0.0 then 1.0 else if x < 0.0 then -1.0 else 0.0)
      done
    | _ ->
      for k = 0 to len - 1 do
        buf_set dst_t dname (dst_off + k) (buf_get at an (ao + k))
      done);
    stats.intrinsic_elems <- stats.intrinsic_elems + len
  | Vec_scale ->
    (* the scalar parameter may be float-valued: re-evaluated via [fparam] *)
    let len = param 0 in
    let s = fparam env in
    let ((_, an, _) as a) = src 0 in
    let at = tensor a and ao = offset a in
    for k = 0 to len - 1 do
      buf_set dst_t dname (dst_off + k) (buf_get at an (ao + k) *. s)
    done;
    stats.intrinsic_elems <- stats.intrinsic_elems + len
  | Vec_adds ->
    let len = param 0 in
    let s = fparam env in
    let ((_, an, _) as a) = src 0 in
    let at = tensor a and ao = offset a in
    for k = 0 to len - 1 do
      buf_set dst_t dname (dst_off + k) (buf_get at an (ao + k) +. s)
    done;
    stats.intrinsic_elems <- stats.intrinsic_elems + len
  | Vec_fill ->
    let len = param 0 in
    let s = fparam env in
    for k = 0 to len - 1 do
      buf_set dst_t dname (dst_off + k) s
    done;
    stats.intrinsic_elems <- stats.intrinsic_elems + len
  | Vec_reduce_sum ->
    let len = param 0 in
    let ((_, an, _) as a) = src 0 in
    let at = tensor a and ao = offset a in
    let acc = ref 0.0 in
    for k = 0 to len - 1 do
      acc := !acc +. buf_get at an (ao + k)
    done;
    buf_set dst_t dname dst_off !acc;
    stats.intrinsic_elems <- stats.intrinsic_elems + len
  | Vec_reduce_max ->
    let len = param 0 in
    if len <= 0 then err "vec_reduce_max: empty input";
    let ((_, an, _) as a) = src 0 in
    let at = tensor a and ao = offset a in
    let acc = ref (buf_get at an ao) in
    for k = 1 to len - 1 do
      acc := Float.max !acc (buf_get at an (ao + k))
    done;
    buf_set dst_t dname dst_off !acc;
    stats.intrinsic_elems <- stats.intrinsic_elems + len
  | Mma | Mlp ->
    let m = param 0 and k = param 1 and n = param 2 in
    let ((_, an, _) as a) = src 0 in
    let ((_, bn, _) as b) = src 1 in
    let at = tensor a and ao = offset a and bt = tensor b and bo = offset b in
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
    let ((_, iname, _) as i) = src 0 in
    let ((_, wname, _) as w) = src 1 in
    let it = tensor i and io = offset i and wt = tensor w and wo_ = offset w in
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
    let ((_, an, _) as a) = src 0 in
    let ((_, bn, _) as b) = src 1 in
    let at = tensor a and ao = offset a and bt = tensor b and bo = offset b in
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

(* [intrinsic_run] over operands the caller evaluated into arrays *)
let intrinsic_exec stats ~name ~op ~dst_t ~dname ~dst_off ~srcs ~params ~fparam =
  let ns = Array.length srcs in
  intrinsic_run stats ~name ~op ~dst_t ~dname ~dst_off
    ~bufs:(Array.map (fun (t, _, _) -> t) srcs)
    ~ints:(Array.append (Array.map (fun (_, _, o) -> o) srcs) params)
    ~srcs:(Array.mapi (fun n (_, nm, _) -> (n, nm, n)) srcs)
    ~params:(Array.init (Array.length params) (fun n -> ns + n))
    ~fparam ()

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

(* [idx] holds index closures already compiled for the statement being
   compiled, keyed by the physical index expression: a lowered loop's fast
   path and its per-element fallback share them (see [lower_loop]) *)
type cenv = {
  svars : (string * sref) list;
  bvars : (string * int) list;
  idx : (Expr.t * (frame -> int)) list;
}

let dummy_tensor = Tensor.create 0

(* ---- lowered innermost loops ------------------------------------------- *)

(* One buffer access of a lowered loop body: its index is affine in the loop
   counter, so at loop entry [index] is evaluated at [lo] and [lo + 1] into the
   int slots [base] and [stride], and iteration [k] touches element [base +
   stride * k] of the tensor in buffer slot [slot]. *)
type access = { slot : int; index : frame -> int; base : int; stride : int }

(* A lowered float expression in postfix order, evaluated on a stack of
   float slots: loads, literals and loop-invariant float slots are pushed;
   the operators replace their operands with the result. [Push_op2] pushes
   [op] applied to two loads, the shape of most lowered stores
   ([t[p] = a[p] * b[p]], [x[0] = x[0] + y[p]]), in one dispatch. *)
type fop =
  | Push_const of float
  | Push_slot of int
  | Push_load of access
  | Push_op2 of Expr.binop * access * access
  | Apply2 of Expr.binop
  | Apply1 of Expr.unop

let[@inline] binop_float (op : Expr.binop) x y =
  match op with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | Min -> Float.min x y
  | Max -> Float.max x y
  | Mod | Eq | Ne | Lt | Le | Gt | Ge | And | Or -> assert false

(* every one of [ext] elements [first + stride * k] lies in [0, len), decided
   without the overflow [first + stride * (ext - 1)] could hit *)
let span_ok first stride ext len =
  first >= 0
  && first < len
  && (stride = 0
     || if stride > 0 then ext - 1 <= (len - 1 - first) / stride else ext - 1 <= first / -stride)

(* The loop-entry preconditions of a lowered loop over [lo, lo + ext) with
   counter slot [s]: no store trace hook, the whole loop within the fuel,
   float tensors, and every access of every iteration in range. Probing the
   indices writes the counter slot, which the per-element loop rewrites
   before it reads it; nothing else changes until this returns [true]. *)
let ready (ctx : ctx) fr s lo ext (accs : access array) =
  Option.is_none ctx.trace
  && ext >= 1
  && lo + (ext - 1) >= lo
  && ext <= ctx.fuel - ctx.stats.steps
  && begin
    let ints = fr.ints and n = Array.length accs in
    let ok = ref true in
    for j = 0 to n - 1 do
      let a = Array.unsafe_get accs j in
      if not (Dtype.is_float (Array.unsafe_get fr.bufs a.slot).Tensor.dtype) then ok := false
    done;
    if !ok then begin
      Array.unsafe_set ints s lo;
      for j = 0 to n - 1 do
        let a = Array.unsafe_get accs j in
        Array.unsafe_set ints a.base (a.index fr)
      done;
      Array.unsafe_set ints s (lo + 1);
      for j = 0 to n - 1 do
        let a = Array.unsafe_get accs j in
        let first = Array.unsafe_get ints a.base in
        let stride = a.index fr - first in
        let len = Array.length (Array.unsafe_get fr.bufs a.slot).Tensor.data in
        Array.unsafe_set ints a.stride stride;
        if not (span_ok first stride ext len) then ok := false
      done
    end;
    !ok
  end

(* the per-element effect of [ext] iterations, after a lowered loop ran *)
let finish (ctx : ctx) fr s lo ext =
  Array.unsafe_set fr.ints s (lo + ext - 1);
  ctx.stats.steps <- ctx.stats.steps + ext

(* element [k] of access [a] of a lowered loop that passed [ready] *)
let[@inline] load fr ints a k =
  Array.unsafe_get
    (Array.unsafe_get fr.bufs a.slot).Tensor.data
    (Array.unsafe_get ints a.base + (Array.unsafe_get ints a.stride * k))

(* iteration [k] of a lowered expression: its value ends up in float slot
   [sp0]. Each case writes its float straight into the slot, so nothing is
   boxed. *)
let run_fcode (code : fop array) fr k sp0 =
  let fl = fr.floats and ints = fr.ints in
  let sp = ref sp0 in
  for pc = 0 to Array.length code - 1 do
    match Array.unsafe_get code pc with
    | Push_const c ->
      Array.unsafe_set fl !sp c;
      incr sp
    | Push_slot x ->
      Array.unsafe_set fl !sp (Array.unsafe_get fl x);
      incr sp
    | Push_load a ->
      Array.unsafe_set fl !sp (load fr ints a k);
      incr sp
    | Push_op2 (op, a, b) ->
      let x = load fr ints a k in
      Array.unsafe_set fl !sp (binop_float op x (load fr ints b k));
      incr sp
    | Apply2 op ->
      decr sp;
      let t = !sp - 1 in
      Array.unsafe_set fl t (binop_float op (Array.unsafe_get fl t) (Array.unsafe_get fl !sp))
    | Apply1 op -> (
      let t = !sp - 1 in
      let x = Array.unsafe_get fl t in
      match op with
      | Neg -> Array.unsafe_set fl t (-.x)
      | Abs -> Array.unsafe_set fl t (Float.abs x)
      | Exp -> Array.unsafe_set fl t (exp x)
      | Log -> Array.unsafe_set fl t (log x)
      | Sqrt -> Array.unsafe_set fl t (sqrt x)
      | Rsqrt -> Array.unsafe_set fl t (1.0 /. sqrt x)
      | Tanh -> Array.unsafe_set fl t (tanh x)
      | Erf -> Array.unsafe_set fl t (erf_approx x)
      | Recip -> Array.unsafe_set fl t (1.0 /. x)
      | Floor -> Array.unsafe_set fl t (Float.floor x)
      | Not -> assert false)
  done

(* [acc = acc + a[ia] * b[ib]] (or [a[ia] * b[ib] + acc]) over the loop,
   with the accumulator in float slot [f] *)
let mac_loop ~acc_first f a b =
  let accs = [| a; b |] in
  fun ctx fr s lo ext ->
  ready ctx fr s lo ext accs
  && begin
    let ints = fr.ints in
    let da = (Array.unsafe_get fr.bufs a.slot).Tensor.data
    and db = (Array.unsafe_get fr.bufs b.slot).Tensor.data in
    let a0 = Array.unsafe_get ints a.base and sa = Array.unsafe_get ints a.stride in
    let b0 = Array.unsafe_get ints b.base and sb = Array.unsafe_get ints b.stride in
    let acc = ref (Array.unsafe_get fr.floats f) in
    if acc_first then
      for k = 0 to ext - 1 do
        acc :=
          !acc +. (Array.unsafe_get da (a0 + (sa * k)) *. Array.unsafe_get db (b0 + (sb * k)))
      done
    else
      for k = 0 to ext - 1 do
        acc :=
          (Array.unsafe_get da (a0 + (sa * k)) *. Array.unsafe_get db (b0 + (sb * k))) +. !acc
      done;
    Array.unsafe_set fr.floats f !acc;
    finish ctx fr s lo ext;
    true
  end

(* [x = e] over the loop, for the float slot [f] of [x]: [e] may read [x],
   so each iteration's value is written back before the next one starts *)
let assign_loop f loads code sp0 =
  let accs = Array.of_list loads in
  fun ctx fr s lo ext ->
  ready ctx fr s lo ext accs
  && begin
    for k = 0 to ext - 1 do
      run_fcode code fr k sp0;
      Array.unsafe_set fr.floats f (Array.unsafe_get fr.floats sp0)
    done;
    finish ctx fr s lo ext;
    true
  end

(* [d[id] = e] over the loop: [dst] is the store's access, [loads] those of
   [code], [sp0] the first float slot of the evaluation stack *)
let store_loop dname dst loads code sp0 =
  let accs = Array.of_list (dst :: loads) in
  fun (ctx : ctx) fr s lo ext ->
  ready ctx fr s lo ext accs
  && begin
    let dd = (Array.unsafe_get fr.bufs dst.slot).Tensor.data in
    let d0 = Array.unsafe_get fr.ints dst.base and sd = Array.unsafe_get fr.ints dst.stride in
    for k = 0 to ext - 1 do
      run_fcode code fr k sp0;
      Array.unsafe_set dd (d0 + (sd * k)) (Array.unsafe_get fr.floats sp0)
    done;
    finish ctx fr s lo ext;
    ctx.stats.stores <- ctx.stats.stores + ext;
    tally ctx dname ext;
    true
  end

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
  (* A lowered loop runs to completion without running another statement,
     so all of them share one scratch region of the frame: [scratch_int j]
     is its [j]-th int slot, and [stack depth] the first of [depth]
     consecutive float slots. Thread-parallel loops copy the frame per fiber,
     so it stays small. *)
  let scratch_ints = ref [] in
  let rec scratch_int j =
    match List.nth_opt !scratch_ints j with
    | Some x -> x
    | None ->
      scratch_ints := !scratch_ints @ [ fresh_int () ];
      scratch_int j
  in
  let stack_region = ref (0, 0) in
  let stack depth =
    let first, size = !stack_region in
    if depth <= size then first
    else begin
      stack_region := (!nfloats, depth);
      nfloats := !nfloats + depth;
      !nfloats - depth
    end
  in
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
    match (e, List.assq_opt e cenv.idx) with
    | _, Some c -> c
    | Int n, None -> fun _ -> n
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
  (* A loop whose body is one statement over affine indices gets a fast
     path that runs the whole loop as one OCaml loop when [ready] holds at
     entry: a fused MAC into a float slot ([mac_loop]), another float-slot
     update ([assign_loop]) or a store ([store_loop]), whose value is float
     arithmetic over loads, literals and float slots. [s] is the loop
     counter's int slot and [cenv] binds it. The per-element body is
     compiled in the returned environment, which hands it the fast path's
     index closures, so each index is compiled once. *)
  let lower_loop cenv s body =
    (* built from literals, int-slot variables, [+], [-] and [*], with
       degree at most one in the counter: evaluating it cannot raise *)
    let rec degree (e : Expr.t) =
      match e with
      | Int _ -> Some 0
      | Var x -> (
        match List.assoc_opt x cenv.svars with
        | Some (Unboxed s') -> Some (if s' = s then 1 else 0)
        | _ -> None)
      | Binop ((Add | Sub), l, r) -> (
        match (degree l, degree r) with Some a, Some b -> Some (max a b) | _ -> None)
      | Binop (Mul, l, r) -> (
        match (degree l, degree r) with Some a, Some b when a + b <= 1 -> Some (a + b) | _ -> None)
      | _ -> None
    in
    let affine e = degree e <> None in
    let bound b = List.mem_assoc b cenv.bvars in
    let fslot x = match List.assoc_opt x cenv.svars with Some (Fslot f) -> Some f | _ -> None in
    (* float arithmetic over loads, literals and float slots: an [F _] when
       every load reads a float tensor ([Int] literals only next to a float) *)
    let rec lfloat (e : Expr.t) =
      match e with
      | Float _ -> true
      | Load (b, i) -> bound b && affine i
      | Var x -> fslot x <> None
      | Binop ((Add | Sub | Mul | Div | Min | Max), l, r) ->
        (lfloat l && lnum r) || (lnum l && lfloat r)
      | Unop ((Exp | Log | Sqrt | Rsqrt | Tanh | Erf | Recip | Floor), x) -> lnum x
      | Unop ((Neg | Abs), x) -> lfloat x
      | _ -> false
    and lnum (e : Expr.t) = match e with Int _ -> true | _ -> lfloat e in
    let shared = ref [] in
    let access b e =
      let j = List.length !shared in
      let a =
        { slot = List.assoc b cenv.bvars;
          index = comp_int cenv e;
          base = scratch_int (2 * j);
          stride = scratch_int ((2 * j) + 1)
        }
      in
      shared := (e, a.index) :: !shared;
      a
    in
    (* [value] in postfix, with the accesses of its loads in order *)
    let lower_value value =
      let loads = ref [] in
      let load_access b i =
        let a = access b i in
        loads := a :: !loads;
        a
      in
      let rec emit (e : Expr.t) =
        match e with
        | Int n -> [ Push_const (float_of_int n) ]
        | Float c -> [ Push_const c ]
        | Var x -> [ Push_slot (Option.get (fslot x)) ]
        | Load (b, i) -> [ Push_load (load_access b i) ]
        | Binop (op, Load (b, i), Load (b', i')) ->
          let a = load_access b i in
          [ Push_op2 (op, a, load_access b' i') ]
        | Binop (op, l, r) -> emit l @ emit r @ [ Apply2 op ]
        | Unop (op, x) -> emit x @ [ Apply1 op ]
        | _ -> assert false
      in
      let code = Array.of_list (emit value) in
      (* the stack depth postfix evaluation of [value] reaches *)
      let rec depth (e : Expr.t) =
        match e with
        | Binop (_, l, r) -> max (depth l) (1 + depth r)
        | Unop (_, x) -> depth x
        | _ -> 1
      in
      (List.rev !loads, code, stack (depth value))
    in
    let fast =
      match body with
      | [ Stmt.Assign { var; value } ] -> (
        let mac ~acc_first f a ia b ib =
          if bound a && bound b && affine ia && affine ib then begin
            let a = access a ia in
            let b = access b ib in
            Some (mac_loop ~acc_first f a b)
          end
          else None
        in
        match (fslot var, value) with
        | Some f, Binop (Add, Var x, Binop (Mul, Load (a, ia), Load (b, ib)))
          when String.equal x var ->
          mac ~acc_first:true f a ia b ib
        | Some f, Binop (Add, Binop (Mul, Load (a, ia), Load (b, ib)), Var x)
          when String.equal x var ->
          mac ~acc_first:false f a ia b ib
        | Some f, _ when lfloat value ->
          let loads, code, sp0 = lower_value value in
          Some (assign_loop f loads code sp0)
        | _ -> None)
      | [ Stmt.Store { buf; index; value } ] when bound buf && affine index && lfloat value ->
        let dst = access buf index in
        let loads, code, sp0 = lower_value value in
        Some (store_loop buf dst loads code sp0)
      | _ -> None
    in
    (fast, { cenv with idx = !shared })
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
      | Some (Fslot s) ->
        (* only names in [float_names] get float slots, so the value is an
           [F _] and storing its float is exact *)
        let cv = comp_ffloat cenv value in
        (cenv, fun _ fr -> Array.unsafe_set fr.floats s (cv fr))
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
          (* both ranges checked once; a failing range, or overlapping
             ranges of one array, take the forward per-element loop, which
             raises at the same element and leaves the same partial copy *)
          let dd = dt.Tensor.data and sd = st.Tensor.data in
          if
            soff >= 0
            && n <= Array.length sd - soff
            && doff >= 0
            && n <= Array.length dd - doff
            && not (dd == sd && soff < doff + n && doff < soff + n)
          then Array.blit sd soff dd doff n
          else
            for k = 0 to n - 1 do
              buf_set dt dname (doff + k) (buf_get st sname (soff + k))
            done;
          ctx.stats.memcpy_elems <- ctx.stats.memcpy_elems + n;
          tally ctx dname n )
    | Stmt.Intrinsic i ->
      let name = Intrin.op_name i.op in
      let gdst = buf_slot cenv i.dst.buf in
      let cdoff = comp_int cenv i.dst.offset in
      (* operands evaluate in order into the frame's scratch int slots:
         source [n]'s offset into [scratch_int n], parameter [n] into
         [scratch_int (nsrcs + n)]; an unbound source raises when its
         buffer is read, so its slot in [srcs] is never used *)
      let nsrcs = List.length i.srcs in
      let csrcs =
        Array.of_list
          (List.mapi
             (fun n (r : Intrin.buf_ref) ->
               (buf_slot cenv r.buf, comp_int cenv r.offset, scratch_int n))
             i.srcs)
      in
      let srcs =
        Array.of_list
          (List.mapi
             (fun n (r : Intrin.buf_ref) ->
               (Option.value ~default:0 (List.assoc_opt r.buf cenv.bvars), r.buf, scratch_int n))
             i.srcs)
      in
      let cparams =
        Array.of_list (List.mapi (fun n e -> (comp_int cenv e, scratch_int (nsrcs + n))) i.params)
      in
      let params = Array.map snd cparams in
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
          for n = 0 to Array.length csrcs - 1 do
            let get, coff, o = Array.unsafe_get csrcs n in
            ignore (get fr : Tensor.t);
            Array.unsafe_set fr.ints o (coff fr)
          done;
          for n = 0 to Array.length cparams - 1 do
            let c, o = Array.unsafe_get cparams n in
            Array.unsafe_set fr.ints o (c fr)
          done;
          intrinsic_run ctx.stats ~name ~op ~dst_t ~dname ~dst_off ~bufs:fr.bufs ~ints:fr.ints
            ~srcs ~params ~fparam:cfparam fr;
          tally ctx dname (ctx.stats.intrinsic_elems - before) )
    | Stmt.Sync ->
      ( cenv,
        fun ctx _ ->
          ctx.stats.barriers <- ctx.stats.barriers + 1;
          try Effect.perform Barrier with Effect.Unhandled _ -> () )
    | Stmt.For { var; lo; extent; kind = Stmt.Parallel ax; body } when Axis.is_thread ax ->
      (* collect the maximal immediately-nested chain of thread-parallel
         loops so a barrier synchronizes the whole thread block *)
      let rec chain acc body =
        match body with
        | [ Stmt.For { var; lo; extent; kind = Stmt.Parallel ax; body = inner } ]
          when Axis.is_thread ax ->
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
        let fast, benv = lower_loop { cenv with svars = (var, Unboxed s) :: cenv.svars } s body in
        let cbody = comp_block benv body in
        let per_element ctx fr lo_v ext_v =
          for i = lo_v to lo_v + ext_v - 1 do
            Array.unsafe_set fr.ints s i;
            cbody ctx fr
          done
        in
        ( cenv,
          match fast with
          | None ->
            fun ctx fr ->
              let lo_v = clo fr in
              let ext_v = cext fr in
              if ext_v < 0 then err "negative loop extent in %s" var;
              per_element ctx fr lo_v ext_v
          | Some fast ->
            fun ctx fr ->
              let lo_v = clo fr in
              let ext_v = cext fr in
              if ext_v < 0 then err "negative loop extent in %s" var;
              if not (fast ctx fr s lo_v ext_v) then per_element ctx fr lo_v ext_v )
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
      ({ svars = []; bvars = []; idx = [] }, [])
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
let cache : t Cache.t Xpiler_util.Session.t =
  Xpiler_util.Session.make (fun () -> Cache.create cache_limit)

module Metrics = Xpiler_obs.Metrics

(* Stable: the cache is session-local, so hit/miss counts are a pure
   function of the session's workload. *)
let m_cache_hits =
  Metrics.counter ~help:"compile cache lookups by result" ~labels:[ ("result", "hit") ]
    "xpiler_compile_cache_lookups_total"

let m_cache_misses =
  Metrics.counter ~labels:[ ("result", "miss") ] "xpiler_compile_cache_lookups_total"

let m_cache_evictions =
  Metrics.counter ~help:"least-recently-used entries dropped at capacity"
    "xpiler_compile_cache_evictions_total"

let cached k =
  let cache = Xpiler_util.Session.get cache in
  match Cache.find cache k with
  | Some c ->
    Metrics.inc m_cache_hits;
    c
  | None ->
    Metrics.inc m_cache_misses;
    let c = compile k in
    if Cache.replace cache k c then Metrics.inc m_cache_evictions;
    c
