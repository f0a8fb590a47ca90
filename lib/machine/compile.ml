open Xpiler_ir

(* The fast evaluation engine: lowers a kernel once into OCaml closures over
   slot-indexed frames (arrays, not assoc lists). The runtime pieces shared
   with the tree-walking reference interpreter — value/stat types, scalar
   operator semantics, intrinsic semantics, the barrier effect and fiber
   scheduler — live here so both engines agree by construction.

   The unit of work is the statement, except in a lowered loop (see
   [lower_loop]). Every float value is a postfix program over a stack of
   float slots ([fop], run by [run_fcode]), compiled by one emitter
   ([emit]): a float let, a float-slot assignment, a store's value, an
   intrinsic's scalar, and each lowered statement. A float the program
   computes crosses no closure boundary, so it is not boxed; the boxed
   [value] closures ([comp]) serve the operands whose type is known only
   at run time, such as a scalar parameter's.

   A loop whose body is a perfect affine nest — a chain of single loops
   ending in one float store or one MAC or fold update of a float slot,
   over indices linear in the counters — runs as nested OCaml
   [for] loops. A loop whose body is a non-empty straight-line block of
   float lets, float stores, float-slot assignments, float scratch
   [Alloc]s and such nests, a loop of reduction rows, runs each iteration
   as one postfix program, with its nests as OCaml loops. Either runs so
   only when one check at the loop's entry proves that no iteration can
   fail: no store trace hook, enough fuel for every statement, float
   tensors, and every index of every iteration in range. Otherwise the
   loop runs as per-element closures, compiled when the check first fails,
   and a nest inside it keeps its own check, so outputs, error messages,
   fuel exhaustion and step counts are those of the statement-at-a-time
   engine.

   A run's frame owns its scratch. An [Alloc] zero-fills and keeps the
   tensor its site made earlier in the same frame, and a thread chain whose
   body contains no [Sync] runs its threads one after another, in the
   order the fibers would run, in one private frame instead of as fibers
   (see [thread_chain]); a chain with a [Sync] runs as fibers. A
   barrier-free one-level chain that assigns no outer variable is the
   serial loop it equals and compiles as one ([serial_threads]). *)

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
  mutable lowered : int;
}

let[@inline] to_float = function I n -> float_of_int n | F f -> f
let to_int = function I n -> n | F f -> int_of_float f
let truthy = function I n -> n <> 0 | F f -> f <> 0.0
let of_bool b = I (if b then 1 else 0)

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

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

(* the float result of a float arithmetic operator: the one definition
   [float_binop] and the postfix programs ([run_fcode]) share *)
let[@inline] binop_float (op : Expr.binop) x y =
  match op with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | Mod -> Float.rem x y
  | Min -> Float.min x y
  | Max -> Float.max x y
  | Eq | Ne | Lt | Le | Gt | Ge | And | Or -> assert false

let float_binop op a b =
  match (op : Expr.binop) with
  | Add | Sub | Mul | Div | Mod | Min | Max -> F (binop_float op a b)
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

(* the float result of a unop on a float, [unop]'s and [run_fcode]'s *)
let[@inline] unop_float (op : Expr.unop) x =
  match op with
  | Neg -> -.x
  | Abs -> Float.abs x
  | Exp -> exp x
  | Log -> log x
  | Sqrt -> sqrt x
  | Rsqrt -> 1.0 /. sqrt x
  | Tanh -> tanh x
  | Erf -> erf_approx x
  | Recip -> 1.0 /. x
  | Floor -> Float.floor x
  | Not -> assert false

let unop op v =
  match (op : Expr.unop) with
  | Not -> of_bool (not (truthy v))
  | Neg -> ( match v with I n -> I (-n) | F f -> F (unop_float op f))
  | Abs -> ( match v with I n -> I (abs n) | F f -> F (unop_float op f))
  | Exp | Log | Sqrt | Rsqrt | Tanh | Erf | Recip | Floor -> F (unop_float op (to_float v))

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
  (* Round 1 starts the fibers in thread order; each later round resumes
     those still suspended in the reverse of the order the round before ran
     them, so a 4-thread kernel with one barrier runs its threads 0..3, then
     3..0. Without a barrier a thread runs to completion before the next one
     starts, so a missing barrier shows, deterministically, as a read of a
     later thread's element before that thread has written it. *)
  let rec rounds states =
    let pending =
      List.filter_map (function Done -> None | Suspended r -> Some r) states
    in
    if pending <> [] then rounds (List.rev_map (fun r -> r ()) pending)
  in
  rounds (List.rev_map start fibers)

(* ---- intrinsic semantics (shared by both engines) ---------------------- *)

(* an intrinsic's source [n] and parameter [n] (see [intrinsic_run]) *)
let[@inline] intrinsic_src name srcs n =
  if n < Array.length srcs then Array.unsafe_get srcs n
  else err "intrinsic %s: missing source %d" name n

let[@inline] intrinsic_param name ints params n =
  if n < Array.length params then ints.(params.(n))
  else err "intrinsic %s: missing parameter %d" name n

(* Operands live in slots the caller owns: source [n] is [srcs.(n) = (b,
   nm, o)], the tensor [bufs.(b)] named [nm] at offset [ints.(o)], and
   parameter [n] is [ints.(params.(n))]. The compiled engine points them
   into its frame, so an execution builds no operand arrays, and the
   operands are read by top-level functions, so it builds no closures
   either. [fparam env] evaluates the second parameter as a float into the
   slot of [floats] it returns, as a float a closure returns is boxed. Each
   elementwise op is its own loop: without flambda a float closure called
   per element boxes. *)
let intrinsic_run stats ~name ~(op : Intrin.op) ~dst_t ~dname ~dst_off ~bufs ~ints ~srcs ~params
    ~(floats : float array) ~fparam env =
  match op with
  | Vec_add | Vec_sub | Vec_mul | Vec_max | Vec_min ->
    let len = intrinsic_param name ints params 0 in
    let ab, an, ao = intrinsic_src name srcs 0 in
    let bb, bn, bo = intrinsic_src name srcs 1 in
    let at = bufs.(ab) and ao = ints.(ao) and bt = bufs.(bb) and bo = ints.(bo) in
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
    let len = intrinsic_param name ints params 0 in
    let ab, an, ao = intrinsic_src name srcs 0 in
    let at = bufs.(ab) and ao = ints.(ao) in
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
    let len = intrinsic_param name ints params 0 in
    let s = floats.(fparam env) in
    let ab, an, ao = intrinsic_src name srcs 0 in
    let at = bufs.(ab) and ao = ints.(ao) in
    for k = 0 to len - 1 do
      buf_set dst_t dname (dst_off + k) (buf_get at an (ao + k) *. s)
    done;
    stats.intrinsic_elems <- stats.intrinsic_elems + len
  | Vec_adds ->
    let len = intrinsic_param name ints params 0 in
    let s = floats.(fparam env) in
    let ab, an, ao = intrinsic_src name srcs 0 in
    let at = bufs.(ab) and ao = ints.(ao) in
    for k = 0 to len - 1 do
      buf_set dst_t dname (dst_off + k) (buf_get at an (ao + k) +. s)
    done;
    stats.intrinsic_elems <- stats.intrinsic_elems + len
  | Vec_fill ->
    let len = intrinsic_param name ints params 0 in
    let s = floats.(fparam env) in
    for k = 0 to len - 1 do
      buf_set dst_t dname (dst_off + k) s
    done;
    stats.intrinsic_elems <- stats.intrinsic_elems + len
  | Vec_reduce_sum ->
    let len = intrinsic_param name ints params 0 in
    let ab, an, ao = intrinsic_src name srcs 0 in
    let at = bufs.(ab) and ao = ints.(ao) in
    let acc = ref 0.0 in
    for k = 0 to len - 1 do
      acc := !acc +. buf_get at an (ao + k)
    done;
    buf_set dst_t dname dst_off !acc;
    stats.intrinsic_elems <- stats.intrinsic_elems + len
  | Vec_reduce_max ->
    let len = intrinsic_param name ints params 0 in
    if len <= 0 then err "vec_reduce_max: empty input";
    let ab, an, ao = intrinsic_src name srcs 0 in
    let at = bufs.(ab) and ao = ints.(ao) in
    let acc = ref (buf_get at an ao) in
    for k = 1 to len - 1 do
      acc := Float.max !acc (buf_get at an (ao + k))
    done;
    buf_set dst_t dname dst_off !acc;
    stats.intrinsic_elems <- stats.intrinsic_elems + len
  | Mma | Mlp ->
    let m = intrinsic_param name ints params 0
    and k = intrinsic_param name ints params 1
    and n = intrinsic_param name ints params 2 in
    let ab, an, ao = intrinsic_src name srcs 0 in
    let bb, bn, bo = intrinsic_src name srcs 1 in
    let at = bufs.(ab) and ao = ints.(ao) and bt = bufs.(bb) and bo = ints.(bo) in
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
    let co = intrinsic_param name ints params 0
    and ci = intrinsic_param name ints params 1
    and kh = intrinsic_param name ints params 2
    and kw = intrinsic_param name ints params 3 in
    let ho = intrinsic_param name ints params 4
    and wo = intrinsic_param name ints params 5
    and stride = intrinsic_param name ints params 6 in
    let wi = ((wo - 1) * stride) + kw in
    let ib, iname, io = intrinsic_src name srcs 0 in
    let wb, wname, wo_ = intrinsic_src name srcs 1 in
    let it = bufs.(ib) and io = ints.(io) and wt = bufs.(wb) and wo_ = ints.(wo_) in
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
    let len = intrinsic_param name ints params 0 in
    if len mod 4 <> 0 then err "dp4a: length %d not a multiple of 4" len;
    let ab, an, ao = intrinsic_src name srcs 0 in
    let bb, bn, bo = intrinsic_src name srcs 1 in
    let at = bufs.(ab) and ao = ints.(ao) and bt = bufs.(bb) and bo = ints.(bo) in
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

(* [intrinsic_run] over operands the caller evaluated into arrays, and the
   scalar [fparam ()] *)
let intrinsic_exec stats ~name ~op ~dst_t ~dname ~dst_off ~srcs ~params ~fparam =
  let ns = Array.length srcs and floats = [| 0.0 |] in
  intrinsic_run stats ~name ~op ~dst_t ~dname ~dst_off
    ~bufs:(Array.map (fun (t, _, _) -> t) srcs)
    ~ints:(Array.append (Array.map (fun (_, _, o) -> o) srcs) params)
    ~srcs:(Array.mapi (fun n (_, nm, _) -> (n, nm, n)) srcs)
    ~params:(Array.init (Array.length params) (fun n -> ns + n))
    ~floats
    ~fparam:(fun () ->
      floats.(0) <- fparam ();
      0)
    ()

(* ---- run receipts ------------------------------------------------------ *)

let fresh_stats () = { steps = 0; stores = 0; intrinsic_elems = 0; memcpy_elems = 0; barriers = 0 }

type receipt = { stats : stats; error : string option; lowered : int }

(* ---- the closure compiler ---------------------------------------------- *)

(* [ints] holds the variables proven always-integer (loop counters, int lets)
   and [floats] those proven always-float (accumulators): writing an unboxed
   array slot allocates nothing and skips the generational write barrier
   that boxed [value array] writes pay on every loop iteration. [threads] is
   the private frame the barrier-free thread chains run in this frame use,
   made at the first of them ([no_frame] until then). *)
type frame = {
  scalars : value array;
  ints : int array;
  floats : float array;
  bufs : Tensor.t array;
  mutable threads : frame;
}

let rec no_frame = { scalars = [||]; ints = [||]; floats = [||]; bufs = [||]; threads = no_frame }

(* a frame with [fr]'s slots and no thread frame: a fiber's *)
let copy_frame fr =
  { scalars = Array.copy fr.scalars;
    ints = Array.copy fr.ints;
    floats = Array.copy fr.floats;
    bufs = Array.copy fr.bufs;
    threads = no_frame
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
   so the postfix programs read and write them as floats. *)
type sref = Boxed of int | Fslot of int | Unboxed of int

(* How the lowering of an enclosing loop fixed a statement of its body
   (see [lower_loop]), keyed by the physical statement: [Level s], a level
   of a nest, runs its counter in int slot [s] and has no fast path of its
   own, as the nest's covers it; [Head (s, fast)], the loop heading a nest
   in a longer body, runs its counter in [s] and has the fast path [fast];
   [Slot s], a let or an [Alloc], binds float or buffer slot [s]. *)
type fixed = Level of int | Head of int * (ctx -> frame -> int -> int -> bool) | Slot of int

type cenv = {
  svars : (string * sref) list;
  bvars : (string * int) list;
  fixed : (Stmt.t * fixed) list;
}

let dummy_tensor = Tensor.create 0

(* ---- thread chains ----------------------------------------------------- *)

(* A chain of immediately nested thread-parallel loops, outermost first:
   each level's variable, its slot and its compiled bounds *)
type level = string * sref * (frame -> int) * (frame -> int)

let set_chain_var fr r x =
  match r with
  | Unboxed s -> Array.unsafe_set fr.ints s x
  | Boxed s -> fr.scalars.(s) <- I x
  | Fslot _ -> assert false (* loop variables are never float slots *)

(* A chain whose body may reach a barrier: every thread a fiber with its
   own copy of the frame, all spawned (every level's bounds evaluated, in
   thread order) before any runs *)
let fiber_chain (levels : level list) cbody ctx fr =
  let rec spawn fr = function
    | [] -> [ (fun () -> cbody ctx fr) ]
    | (v, r, clo, cext) :: rest ->
      let lo_v = clo fr in
      let ext_v = cext fr in
      if ext_v < 0 then err "negative loop extent in %s" v;
      List.concat
        (List.init ext_v (fun i ->
             let fr' = copy_frame fr in
             set_chain_var fr' r (lo_v + i);
             spawn fr' rest))
  in
  run_fiber_group (spawn fr levels)

(* the distinct slots [f] picks from [l] *)
let slots f l = Array.of_list (List.sort_uniq compare (List.filter_map f l))

(* [dst.(s) <- src.(s)] for every slot [s] of [slots]; a float array
   needs its own copy, as a polymorphic read of one boxes *)
let copy_slots (src : 'a array) (dst : 'a array) slots =
  for j = 0 to Array.length slots - 1 do
    let s = Array.unsafe_get slots j in
    Array.unsafe_set dst s (Array.unsafe_get src s)
  done

let copy_float_slots (src : float array) (dst : float array) slots =
  for j = 0 to Array.length slots - 1 do
    let s = Array.unsafe_get slots j in
    Array.unsafe_set dst s (Array.unsafe_get src s)
  done

(* the frame [fr]'s barrier-free chains run their threads in *)
let thread_frame fr =
  if fr.threads != no_frame then fr.threads
  else begin
    let t = copy_frame fr in
    fr.threads <- t;
    t
  end

(* A chain whose body reaches no barrier ([innermost], compiled to [cbody]
   in [env], which extends the chain's scope [cenv] with the chain
   variables): no fiber ever suspends, so each runs to completion in turn,
   in thread order, the order [run_fiber_group] runs them in. So the
   threads run one after another in [fr]'s thread frame. Before any thread
   runs, every level's bounds are evaluated in that order, so the spawner's
   errors are raised before any body runs; the bounds of the inner levels
   read no tensor (a body may store to it), so evaluating them again as the
   threads run gives the same values. Each thread starts from the frame the
   spawner would copy for it: every slot the body can see is copied from
   [fr] when the chain starts, and before each thread the slots a thread
   can change, the chain variables and the variables of [cenv] the body
   assigns, again. The body's own slots are written before they are read,
   and the tensors its [Alloc]s made for the thread before are reused:
   nothing outside the thread reads them. *)
let thread_chain cenv env innermost (levels : level list) cbody =
  let levels = Array.of_list levels in
  let depth = Array.length levels in
  let boxed = function Boxed s -> Some s | _ -> None
  and unboxed = function Unboxed s -> Some s | _ -> None
  and fslot = function Fslot s -> Some s | _ -> None in
  let seen = List.map snd env.svars in
  let see_scalars = slots boxed seen
  and see_ints = slots unboxed seen
  and see_floats = slots fslot seen
  and see_bufs = slots (fun (_, s) -> Some s) env.bvars in
  let assigned =
    Stmt.fold
      (fun acc s -> match s with Stmt.Assign { var; _ } -> var :: acc | _ -> acc)
      [] innermost
  in
  let changed =
    List.map (fun (_, r, _, _) -> r) (Array.to_list levels)
    @ List.filter_map (fun x -> List.assoc_opt x cenv.svars) assigned
  in
  let own_scalars = slots boxed changed
  and own_ints = slots unboxed changed
  and own_floats = slots fslot changed in
  (* every level's bounds in the spawner's order and, given a thread frame
     [t], every thread's body in it *)
  let rec walk ctx fr t l =
    let v, r, clo, cext = Array.unsafe_get levels l in
    let lo = clo fr in
    let ext = cext fr in
    if ext < 0 then err "negative loop extent in %s" v;
    if l + 1 < depth then
      for i = 0 to ext - 1 do
        set_chain_var fr r (lo + i);
        walk ctx fr t (l + 1)
      done
    else if t != no_frame then
      for i = 0 to ext - 1 do
        set_chain_var fr r (lo + i);
        copy_slots fr.scalars t.scalars own_scalars;
        copy_slots fr.ints t.ints own_ints;
        copy_float_slots fr.floats t.floats own_floats;
        cbody ctx t
      done
  in
  fun ctx fr ->
    if depth > 1 then walk ctx fr no_frame 0;
    let t = thread_frame fr in
    copy_slots fr.scalars t.scalars see_scalars;
    copy_slots fr.ints t.ints see_ints;
    copy_float_slots fr.floats t.floats see_floats;
    copy_slots fr.bufs t.bufs see_bufs;
    walk ctx fr t 0

(* ---- lowered nests ----------------------------------------------------- *)

(* [k + sum_j coefs.(j) * ints.(slots.(j))]: an integer combination of int
   slots with literal coefficients, the form every index and bound of a
   lowered nest takes, and every linear index compiles to. Evaluated in the
   engine's wrapping arithmetic, it equals the expression it was built
   from. *)
type lin = { k : int; slots : int array; coefs : int array }

let lin_zero = { k = 0; slots = [||]; coefs = [||] }

let[@inline] lin_eval ints l =
  let v = ref l.k in
  for j = 0 to Array.length l.slots - 1 do
    v := !v + (Array.unsafe_get l.coefs j * Array.unsafe_get ints (Array.unsafe_get l.slots j))
  done;
  !v

(* One buffer access of a lowered nest's body, into the tensor in buffer
   slot [slot]. Its index is [form], in which level [l]'s counter has the
   coefficient [strides.(l)]. The last two levels run as rows (the only
   level of a one-level nest, as one row): before they run, the int slot
   [base] gets the index at their first iteration; [ostride] and [stride]
   are the strides of the two, and the int slot [row] gets the index at
   the start of the current row ([base] itself in a one-level nest).
   [size] is the declared size of a float tensor that an [Alloc] of the
   same loop body makes before the access runs, and -1 for a tensor the
   frame holds at the loop's entry. *)
type access = {
  slot : int;
  form : lin;
  strides : int array;
  base : int;
  ostride : int;
  stride : int;
  row : int;
  size : int;
}

(* A float expression in postfix order, evaluated on a stack of float
   slots: loads, literals and float slots are pushed; the operators replace
   their operands with the result. In a lowered nest a load reads its row's
   element ([Push_load]) or the element at the counters' iteration
   ([Push_at]), and a lowered straight-line block is one such program:
   [Pop_at] stores at the counters' iteration, [Pop_slot] writes a float
   slot, [Alloc (s, dtype, size)] is an [Alloc] at buffer slot [s], and
   [Run] runs a nest below the block's loop. Outside lowered code a
   statement's float value is one such program too: [Push_get (i, s, b)]
   is a checked load of buffer [b] in buffer slot [s] (-1: unbound) at
   index [i], and [Push_value c] pushes the value [c] evaluates, as a
   float. *)
type fop =
  | Push_const of float
  | Push_slot of int
  | Push_load of access
  | Push_at of access
  | Push_get of (frame -> int) * int * string
  | Push_value of (frame -> value)
  | Apply2 of Expr.binop
  | Apply1 of Expr.unop
  | Pop_slot of int
  | Pop_at of access
  | Alloc of int * Dtype.t * int
  | Run of (frame -> unit)

(* A lowered nest of [Array.length counters] loops, level 0 outermost:
   level [l] runs its counter slot [counters.(l)] from [los.(l)] over
   [exts.(l)] iterations (level 0's bounds come from the loop itself).
   [accs] are every access of the body. [reduce] is set for a store [d[f] =
   d[f] + e]: the store's access and the float slot its element is reduced
   in. *)
type nest = {
  counters : int array;
  los : lin array;
  exts : lin array;
  accs : access array;
  reduce : (access * int) option;
}

(* The last two levels of a nest that passed [ready], [eo] rows of [ei]
   iterations: each runner below reads the bases and strides of its
   accesses once and loops over both *)
type rows = frame -> int -> int -> unit

(* A lowered nest whose level 0 is a lowered loop: [nx] and the runners of
   its levels, [head fr lo0 ext0] from level 0 over [lo0, lo0 + ext0), and
   [below fr] from level 1 at the iteration the loop's counter holds.
   [stores] is set when its statement is a store. *)
type item = { nx : nest; stores : bool; head : frame -> int -> int -> unit; below : frame -> unit }

(* A lowered loop with counter slot [counter]: [nests] are the nests of
   its body. A body of one nest or one statement ([prog] empty) runs as the
   nest [nests.(0)] from the loop's level. Otherwise an iteration runs
   [prog] with its stack from float slot [sp]: the body's [stmts] own
   statements ([stored] of them stores), whose accesses are those of the
   one-level nest [top], and a [Run] of each nest. *)
type block = {
  counter : int;
  nests : item array;
  top : nest;
  stmts : int;
  stored : int;
  prog : fop array;
  sp : int;
}

(* Extents, strides and statement counts a lowered nest accepts are below
   2^30, so the product of two of them, and its sum with an array index,
   cannot overflow *)
let small = 0x4000_0000

(* The start and the extent of level [l] of a nest whose head loop runs
   over [lo0, lo0 + ext0) *)
let[@inline] level_lo fr nx lo0 l = if l = 0 then lo0 else lin_eval fr.ints nx.los.(l)
let[@inline] level_ext fr nx ext0 l = if l = 0 then ext0 else lin_eval fr.ints nx.exts.(l)

(* access [a]'s index at the iteration the counter slots hold *)
let[@inline] index_now ints (a : access) = lin_eval ints a.form

(* Access [a] of a nest whose head runs [ext0] iterations, with the
   counters at the first iteration, reads a float tensor, and every element
   [base + sum_l stride_l * i_l] with [0 <= i_l < ext_l] lies in it;
   [base], its index at the first iteration, goes to its [base] slot. An
   affine index takes its extremes at the box's corners, so [lo] and [hi]
   add up the negative and the positive steps. Each sum is checked as it
   grows, so while the check holds nothing overflows. *)
let access_ok fr nx ext0 (a : access) =
  let t = Array.unsafe_get fr.bufs a.slot in
  (a.size >= 0 || Dtype.is_float t.Tensor.dtype)
  && begin
    let base = index_now fr.ints a
    and len = if a.size >= 0 then a.size else Array.length t.Tensor.data in
    Array.unsafe_set fr.ints a.base base;
    let lo = ref base and hi = ref base and ok = ref (base >= 0 && base < len) in
    for l = 0 to Array.length nx.counters - 1 do
      let s = Array.unsafe_get a.strides l and e1 = level_ext fr nx ext0 l - 1 in
      if s > 0 then (if s < small then hi := !hi + (s * e1) else ok := false)
      else if s < 0 then if s > -small then lo := !lo + (s * e1) else ok := false;
      if !hi >= len || !lo < 0 then ok := false
    done;
    !ok
  end

(* The entry check of a lowered loop [b] over [lo0, lo0 + ext0): no store
   trace hook, the extent of the loop and of every level of every nest at
   least 1 with its last counter value representable, every statement the
   per-element engine would run within the fuel, and every access
   [access_ok]. Returns the number of those statements, or -1 when a check
   fails. An iteration of the loop runs its body's own statements and, per
   nest, the [For] heading it and the iterations of its levels: level [l]
   runs [ext_l * (1 + t)] statements, where [t] is the count of the level
   below it (0 below the innermost). Only the accesses' [base] slots and
   the counter slots change: the counters get their levels' first
   iterations, which the per-element loops overwrite before they read
   them. *)
let ready (ctx : ctx) fr b lo0 ext0 =
  match ctx.trace with
  | Some _ -> -1
  | None ->
    let ints = fr.ints and nests = b.nests in
    let per = ref (if ext0 >= 1 && ext0 < small && lo0 + (ext0 - 1) >= lo0 then b.stmts else -1) in
    let j = ref 0 in
    while !per >= 0 && !j < Array.length nests do
      let nx = (Array.unsafe_get nests !j).nx in
      let total = ref 0 and l = ref (Array.length nx.counters - 1) in
      while !l >= 1 && !total >= 0 do
        let lo = lin_eval ints nx.los.(!l) and e = lin_eval ints nx.exts.(!l) in
        if e >= 1 && e < small && lo + (e - 1) >= lo && !total < small then begin
          Array.unsafe_set ints (Array.unsafe_get nx.counters !l) lo;
          total := e * (1 + !total)
        end
        else total := -1;
        decr l
      done;
      if !total >= 0 && !total < small && !per < small then per := !per + 1 + !total
      else per := -1;
      incr j
    done;
    let total = ref (if !per >= 0 && !per < small then ext0 * !per else -1) in
    if !total > ctx.fuel - ctx.stats.steps then total := -1;
    Array.unsafe_set ints b.counter lo0;
    let j = ref (-1) in
    while !total >= 0 && !j < Array.length nests do
      let nx = if !j < 0 then b.top else (Array.unsafe_get nests !j).nx in
      let accs = nx.accs and k = ref 0 in
      while !total >= 0 && !k < Array.length accs do
        if access_ok fr nx ext0 (Array.unsafe_get accs !k) then incr k else total := -1
      done;
      incr j
    done;
    !total

(* the per-element effect of a loop that ran [total] statements lowered:
   every counter slot at its last value, and as many stores as iterations
   of every store *)
let finish (ctx : ctx) fr b lo0 ext0 total =
  fr.ints.(b.counter) <- lo0 + ext0 - 1;
  ctx.stats.stores <- ctx.stats.stores + (b.stored * ext0);
  for j = 0 to Array.length b.nests - 1 do
    let { nx; stores; _ } = b.nests.(j) in
    let n = ref ext0 in
    for l = 1 to Array.length nx.counters - 1 do
      let e = level_ext fr nx ext0 l in
      fr.ints.(nx.counters.(l)) <- level_lo fr nx lo0 l + e - 1;
      n := !n * e
    done;
    if stores then ctx.stats.stores <- ctx.stats.stores + !n
  done;
  ctx.stats.steps <- ctx.stats.steps + total

(* The level from which the store access [dst] stays put, so its element
   can be reduced in a float slot: the first level below which every
   stride of [dst] is 0. [depth] (no reduction) when the innermost level
   moves it, or when an access of the reduction ([loads]) reads its
   tensor. *)
let reduction_level fr nx dst (loads : access array) =
  let depth = Array.length nx.counters in
  let red = ref depth in
  while !red > 0 && dst.strides.(!red - 1) = 0 do
    decr red
  done;
  let t = fr.bufs.(dst.slot) in
  for j = 0 to Array.length loads - 1 do
    if fr.bufs.((Array.unsafe_get loads j).slot) == t then red := depth
  done;
  !red

(* Levels [l] and below of a nest whose head runs over [lo0, lo0 + ext0),
   in a loop that passed [ready]; levels from 1 read neither bound of level
   0. A level above the last two steps its counter slot; the last two run
   as [rows], from every access's [base] at the counters' iteration. At
   level [red] (-1: none) the reduced element of [nx.reduce] is read into
   its float slot, and written back once the levels below have run (the
   counters of those levels do not move it). *)
let rec run_level nx (rows : rows) red fr lo0 ext0 l =
  match nx.reduce with
  | Some (d, acc) when l = red ->
    let data = (Array.unsafe_get fr.bufs d.slot).Tensor.data in
    let o = index_now fr.ints d in
    Array.unsafe_set fr.floats acc (Array.unsafe_get data o);
    run_below nx rows red fr lo0 ext0 l;
    Array.unsafe_set data o (Array.unsafe_get fr.floats acc)
  | _ -> run_below nx rows red fr lo0 ext0 l

and run_below nx rows red fr lo0 ext0 l =
  let ints = fr.ints and depth = Array.length nx.counters in
  if l >= depth - 2 then begin
    (* at the head, [ready] left the bases at the counters' iteration *)
    if l > 0 then begin
      let accs = nx.accs in
      for j = 0 to Array.length accs - 1 do
        let a = Array.unsafe_get accs j in
        Array.unsafe_set ints a.base (index_now ints a)
      done
    end;
    let ext = level_ext fr nx ext0 l in
    if l = depth - 1 then rows fr 1 ext else rows fr ext (level_ext fr nx ext0 (l + 1))
  end
  else begin
    let c = Array.unsafe_get nx.counters l and lo = level_lo fr nx lo0 l in
    for i = 0 to level_ext fr nx ext0 l - 1 do
      Array.unsafe_set ints c (lo + i);
      run_level nx rows red fr lo0 ext0 (l + 1)
    done
  end

(* row [i]'s start in every access of [accs] *)
let set_rows ints (accs : access array) i =
  for j = 0 to Array.length accs - 1 do
    let a = Array.unsafe_get accs j in
    Array.unsafe_set ints a.row (Array.unsafe_get ints a.base + (i * a.ostride))
  done

(* element [k] of access [a] in the current row *)
let[@inline] load fr ints a k =
  Array.unsafe_get
    (Array.unsafe_get fr.bufs a.slot).Tensor.data
    (Array.unsafe_get ints a.row + (a.stride * k))

(* [Alloc] at buffer slot [s]: the slot holds [dummy_tensor] or the tensor
   this site made earlier in the same frame. Only this frame and the frames
   copied from it while the site's scope ran (fibers, its thread frame)
   could reach that tensor, and they are done with it. A site inside a
   thread chain never runs in the frame the chain copies, so a fiber's copy
   of the slot is [dummy_tensor]. *)
let alloc_at fr s dtype size =
  let t = Array.unsafe_get fr.bufs s in
  if t == dummy_tensor then fr.bufs.(s) <- Tensor.create ~dtype size
  else Array.fill t.Tensor.data 0 size 0.0

(* iteration [k] of a float expression: its value ends up in float slot
   [sp0]; or an iteration of a lowered block or a statement's program,
   which leaves the stack as it found it. Each case writes its float
   straight into the slot, so nothing is boxed. No closure a program calls
   runs a program, so all programs share one stack region of the frame. *)
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
    | Push_at a ->
      Array.unsafe_set fl !sp
        (Array.unsafe_get (Array.unsafe_get fr.bufs a.slot).Tensor.data (index_now ints a));
      incr sp
    | Push_get (ci, s, b) ->
      (* the index, then the buffer, as [comp]'s [Load]; an int tensor's
         element truncates *)
      let i = ci fr in
      if s < 0 then err "unbound buffer %s" b;
      let t = Array.unsafe_get fr.bufs s in
      let v = buf_get t b i in
      Array.unsafe_set fl !sp
        (if Dtype.is_float t.Tensor.dtype then v else float_of_int (int_of_float v));
      incr sp
    | Push_value c ->
      Array.unsafe_set fl !sp (to_float (c fr));
      incr sp
    | Pop_slot x ->
      decr sp;
      Array.unsafe_set fl x (Array.unsafe_get fl !sp)
    | Pop_at a ->
      decr sp;
      Array.unsafe_set (Array.unsafe_get fr.bufs a.slot).Tensor.data (index_now ints a)
        (Array.unsafe_get fl !sp)
    | Alloc (s, dtype, size) -> alloc_at fr s dtype size
    | Run below -> below fr
    | Apply2 op ->
      decr sp;
      let t = !sp - 1 in
      Array.unsafe_set fl t (binop_float op (Array.unsafe_get fl t) (Array.unsafe_get fl !sp))
    | Apply1 op ->
      let t = !sp - 1 in
      Array.unsafe_set fl t (unop_float op (Array.unsafe_get fl t))
  done

(* The fast path of a loop whose body [lower_loop] lowered to [b]: given
   the loop's start and extent, it runs the whole loop and returns [true],
   or returns [false] having changed nothing the per-element loops read
   before they write it (see [ready]). *)
let block_path b (ctx : ctx) fr lo ext =
  let total = ready ctx fr b lo ext in
  total >= 0
  && begin
    ctx.lowered <- ctx.lowered + 1;
    if Array.length b.prog = 0 then b.nests.(0).head fr lo ext
    else
      for i = 0 to ext - 1 do
        Array.unsafe_set fr.ints b.counter (lo + i);
        run_fcode b.prog fr 0 b.sp
      done;
    finish ctx fr b lo ext total;
    true
  end

(* The fast path of the loop heading the nest [b.nests.(0)] of a longer
   block, when it runs per element: the block's loop stays at the
   iteration its counter holds, and the check and the run are those of
   [b] over that one iteration. The loop's own statement was counted
   before, so its run counts one statement less. *)
let head_path b (ctx : ctx) fr _ _ =
  let lo = Array.unsafe_get fr.ints b.counter in
  let total = ready ctx fr b lo 1 in
  total >= 0
  && begin
    ctx.lowered <- ctx.lowered + 1;
    b.nests.(0).below fr;
    finish ctx fr b lo 1 (total - 1);
    true
  end

(* For the row reduction of a store [d[f] = d[f] + e] whose index [f]
   moves only along the outer of the last two levels: [dst]'s tensor, its
   element at the first row and its step per row (dummies without [dst]) *)
let[@inline] row_dst fr (dst : access option) =
  match dst with
  | Some d -> (Array.unsafe_get fr.bufs d.slot).Tensor.data
  | None -> [||]

let[@inline] row_start ints (dst : access option) =
  match dst with Some d -> Array.unsafe_get ints d.base | None -> 0

let[@inline] row_step (dst : access option) =
  match dst with Some d -> d.ostride | None -> 0

(* [acc = acc + a[ia] * b[ib]] over the rows, with the accumulator in
   float slot [f]. With [dst], each row starts from the row's element of
   [dst] and writes its sum back there. *)
let mac_rows f a b dst : rows =
  let per_row = Option.is_some dst in
  let run fr eo ei =
    let ints = fr.ints and fl = fr.floats in
    let da = (Array.unsafe_get fr.bufs a.slot).Tensor.data
    and db = (Array.unsafe_get fr.bufs b.slot).Tensor.data in
    let a0 = Array.unsafe_get ints a.base and ao = a.ostride and sa = a.stride in
    let b0 = Array.unsafe_get ints b.base and bo = b.ostride and sb = b.stride in
    let dd = row_dst fr dst and d0 = row_start ints dst and dso = row_step dst in
    for i = 0 to eo - 1 do
      let ar = a0 + (ao * i) and br = b0 + (bo * i) in
      if per_row then Array.unsafe_set fl f (Array.unsafe_get dd (d0 + (dso * i)));
      let acc = ref (Array.unsafe_get fl f) in
      for k = 0 to ei - 1 do
        acc := !acc +. (Array.unsafe_get da (ar + (sa * k)) *. Array.unsafe_get db (br + (sb * k)))
      done;
      Array.unsafe_set fl f !acc;
      if per_row then Array.unsafe_set dd (d0 + (dso * i)) !acc
    done
  in
  run

(* [d[id] = e] over the rows: [dst] is the store's access, [loads] those
   of [code], which evaluates [e] with its stack from float slot [sp0] *)
let store_rows dst loads code sp0 : rows =
  let run fr eo ei =
    let ints = fr.ints in
    let dd = (Array.unsafe_get fr.bufs dst.slot).Tensor.data in
    let d0 = Array.unsafe_get ints dst.base and dso = dst.ostride and sd = dst.stride in
    for i = 0 to eo - 1 do
      set_rows ints loads i;
      let dr = d0 + (dso * i) in
      for k = 0 to ei - 1 do
        run_fcode code fr k sp0;
        Array.unsafe_set dd (dr + (sd * k)) (Array.unsafe_get fr.floats sp0)
      done
    done
  in
  run

(* [d[id] = a[ia] op b[ib]] over the rows, the shape of most lowered
   stores, without [run_fcode]'s dispatch *)
let op2_rows op dst a b : rows =
  let run fr eo ei =
    let ints = fr.ints in
    let dd = (Array.unsafe_get fr.bufs dst.slot).Tensor.data
    and da = (Array.unsafe_get fr.bufs a.slot).Tensor.data
    and db = (Array.unsafe_get fr.bufs b.slot).Tensor.data in
    let d0 = Array.unsafe_get ints dst.base and dso = dst.ostride and sd = dst.stride in
    let a0 = Array.unsafe_get ints a.base and ao = a.ostride and sa = a.stride in
    let b0 = Array.unsafe_get ints b.base and bo = b.ostride and sb = b.stride in
    for i = 0 to eo - 1 do
      let dr = d0 + (dso * i) and ar = a0 + (ao * i) and br = b0 + (bo * i) in
      for k = 0 to ei - 1 do
        let x = Array.unsafe_get da (ar + (sa * k)) in
        Array.unsafe_set dd (dr + (sd * k)) (binop_float op x (Array.unsafe_get db (br + (sb * k))))
      done
    done
  in
  run

(* [x = x op a[ia]] over the rows, for the float slot [f] of [x], such as
   [mx = max(mx, s[p])]; [dst] as for [mac_rows] *)
let fold_rows op f a dst : rows =
  let per_row = Option.is_some dst in
  let run fr eo ei =
    let ints = fr.ints and fl = fr.floats in
    let da = (Array.unsafe_get fr.bufs a.slot).Tensor.data in
    let a0 = Array.unsafe_get ints a.base and ao = a.ostride and sa = a.stride in
    let dd = row_dst fr dst and d0 = row_start ints dst and dso = row_step dst in
    for i = 0 to eo - 1 do
      let ar = a0 + (ao * i) in
      if per_row then Array.unsafe_set fl f (Array.unsafe_get dd (d0 + (dso * i)));
      let acc = ref (Array.unsafe_get fl f) in
      for k = 0 to ei - 1 do
        acc := binop_float op !acc (Array.unsafe_get da (ar + (sa * k)))
      done;
      Array.unsafe_set fl f !acc;
      if per_row then Array.unsafe_set dd (d0 + (dso * i)) !acc
    done
  in
  run

(* The levels from 1 of a nest that reduces nothing, run as [rows] at the
   iteration level 0's counter holds: a nest of one level below the loop,
   the common one, sets its bases and runs its one row directly *)
let below_rows nx (rows : rows) : frame -> unit =
  if Array.length nx.counters <> 2 then fun fr -> run_below nx rows (-1) fr 0 0 1
  else begin
    let accs = nx.accs and ext = nx.exts.(1) in
    fun fr ->
      let ints = fr.ints in
      for j = 0 to Array.length accs - 1 do
        let a = Array.unsafe_get accs j in
        Array.unsafe_set ints a.base (index_now ints a)
      done;
      rows fr 1 (lin_eval ints ext)
  end

(* The levels from [l] of a nest whose statement stores through [dst]:
   [plain] stores every element. For a store [d[f] = d[f] + e] whose [e] is
   a MAC or fold operand, [reduced] holds the accesses of [e] and the
   runners of the same rows as an update of [nx.reduce]'s float slot: the
   one that reduces each row into its element of [dst], and the one that
   leaves the reduction to [run_level]. Below level [l] nothing reduces. *)
let store_levels nx dst plain reduced fr lo ext l =
  let depth = Array.length nx.counters in
  match reduced with
  | Some (loads, per_row, whole) -> (
    match max l (reduction_level fr nx dst loads) with
    | red when red = depth -> run_level nx plain (-1) fr lo ext l
    | red when red = depth - 1 && depth > 1 -> run_level nx per_row (-1) fr lo ext l
    | red -> run_level nx whole red fr lo ext l)
  | None -> run_level nx plain (-1) fr lo ext l

(* A nest being lowered: [nenv] binds its counters [ncounters] and the
   names in scope, [nsizes] gives the buffer slots its loop's body
   allocates their declared sizes, [naccs] holds its accesses so far, each
   with its buffer slot and index, and [nnext] is its next scratch int
   slot. The one-level nest of a block's own statements follows the
   block's scope as its statements bind names. *)
type builder = {
  mutable nenv : cenv;
  ncounters : int array;
  mutable nsizes : (int * int) list;
  mutable naccs : (int * Expr.t * access) list;
  mutable nnext : int;
}

(* the stack depth postfix evaluation of [e] reaches at most *)
let rec stack_depth (e : Expr.t) =
  match e with
  | Binop (_, l, r) -> max (stack_depth l) (1 + stack_depth r)
  | Unop (_, x) -> stack_depth x
  | _ -> 1

(* the accumulator [x] of a MAC [x + a[i] * b[j]] or a fold [x op a[i]] *)
let update_acc (e : Expr.t) =
  match e with
  | Binop (Add, x, Binop (Mul, Load _, Load _)) | Binop (_, x, Load _) -> Some x
  | _ -> None

(* the level bounds of a nest of no levels below its loop's *)
let no_levels = [| lin_zero |]

(* the nest of no levels and no accesses *)
let no_nest = { counters = [||]; los = [||]; exts = [||]; accs = [||]; reduce = None }

(* the nest of [nb], whose levels below its loop's are [levels] *)
let make_nest nb levels reduce =
  let bounds f = match levels with [] -> no_levels | _ -> Array.of_list (lin_zero :: List.map f levels) in
  { counters = nb.ncounters;
    los = bounds (fun (_, _, lo, _) -> lo);
    exts = bounds (fun (_, _, _, ext) -> ext);
    accs = Array.of_list (List.rev_map (fun (_, _, a) -> a) nb.naccs);
    reduce
  }

(* [float_valued is_float_var is_float_buf e]: evaluation provably yields
   [F _], given that every variable satisfying [is_float_var] holds an [F
   _] and every buffer name satisfying [is_float_buf] names a float tensor.
   Transcendental unops always do; arithmetic does if either operand does
   (the mixed case takes [float_binop]). *)
let rec float_valued is_float_var is_float_buf (e : Expr.t) =
  match e with
  | Float _ -> true
  | Int _ -> false
  | Load (b, _) -> is_float_buf b
  | Var x -> is_float_var x
  | Binop ((Eq | Ne | Lt | Le | Gt | Ge | And | Or), _, _) -> false
  | Binop (_, l, r) ->
    float_valued is_float_var is_float_buf l || float_valued is_float_var is_float_buf r
  | Unop ((Exp | Log | Sqrt | Rsqrt | Tanh | Erf | Recip | Floor), _) -> true
  | Unop ((Neg | Abs), x) -> float_valued is_float_var is_float_buf x
  | Unop (Not, _) -> false
  | Select (_, t, f) ->
    float_valued is_float_var is_float_buf t && float_valued is_float_var is_float_buf f
  | Cast (d, _) -> Dtype.is_float d

(* The names that only ever hold floats: the greatest set of Let/Assign
   targets, excluding parameter and loop-variable names, such that every
   Let/Assign value of a member is [float_valued] assuming the members are.
   Start from all targets and drop violators until none is left. With it,
   the buffer names whose loads are floats: those that only float [Alloc]s
   bind and no parameter has (a load reads the tensor its name is bound to,
   and only an [Alloc] or a parameter binds one). *)
let float_names (k : Kernel.t) =
  let excluded = Hashtbl.create 16 and defs = ref [] and allocs = ref [] in
  List.iter (fun (p : Kernel.param) -> Hashtbl.replace excluded p.name ()) k.Kernel.params;
  Stmt.iter
    (fun s ->
      match s with
      | Stmt.Let { var; value } | Stmt.Assign { var; value } -> defs := (var, value) :: !defs
      | Stmt.For { var; _ } -> Hashtbl.replace excluded var ()
      | Stmt.Alloc { buf; dtype; _ } -> allocs := (buf, Dtype.is_float dtype) :: !allocs
      | _ -> ())
    k.Kernel.body;
  let float_bufs =
    List.filter_map
      (fun (b, is_float) ->
        if
          is_float
          && (not (List.mem (b, false) !allocs))
          && not (List.exists (fun (p : Kernel.param) -> String.equal p.name b) k.Kernel.params)
        then Some b
        else None)
      !allocs
  in
  let is_float_buf b = List.mem b float_bufs in
  let names = Hashtbl.create 16 in
  List.iter
    (fun (v, _) -> if not (Hashtbl.mem excluded v) then Hashtbl.replace names v ())
    !defs;
  let rec shrink () =
    let violators =
      List.filter
        (fun (v, e) -> Hashtbl.mem names v && not (float_valued (Hashtbl.mem names) is_float_buf e))
        !defs
    in
    if violators <> [] then begin
      List.iter (fun (v, _) -> Hashtbl.remove names v) violators;
      shrink ()
    end
  in
  shrink ();
  (names, is_float_buf)

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
  (* A lowered nest runs to completion without running another statement,
     so all of them share one scratch region of the frame: [scratch_int j]
     is its [j]-th int slot, [reduce_slot ()] the float slot a reducing
     store accumulates in, and [stack depth] the first of [depth]
     consecutive float slots. Every postfix program's stack is that one
     region: a program runs to completion, and no closure it calls ([comp],
     [comp_int], [comp_iint]) runs a program. Thread-parallel loops copy
     the frame per fiber, so it stays small. *)
  let scratch_ints = ref [] in
  let rec scratch_int j =
    match List.nth_opt !scratch_ints j with
    | Some x -> x
    | None ->
      scratch_ints := !scratch_ints @ [ fresh_int () ];
      scratch_int j
  in
  let reduce_at = ref (-1) in
  let reduce_slot () =
    if !reduce_at < 0 then reduce_at := fresh_float ();
    !reduce_at
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
  let float_names, is_float_buf = float_names k in
  (* names ever targeted by an Assign anywhere in the kernel: a variable not
     in this set whose binding only ever writes integers can never observe a
     float, so expressions over it compile to unboxed int closures *)
  let assigned = Hashtbl.create 16 in
  Stmt.iter
    (function Stmt.Assign { var; _ } -> Hashtbl.replace assigned var () | _ -> ())
    k.Kernel.body;
  let never_assigned v = not (Hashtbl.mem assigned v) in
  (* A thread loop with [body] in scope [cenv] compiles as the serial loop
     it equals when its chain has one level (the body is not a thread
     loop), reaches no [Sync] and assigns no variable bound outside it: its
     threads would run one after another in thread order, each from the
     spawner's slots ([thread_chain]), and only such an assignment could
     tell those slots from the ones the thread before left *)
  let serial_threads cenv (body : Stmt.t list) =
    (match body with
    | [ Stmt.For { kind = Stmt.Parallel ax; _ } ] -> not (Axis.is_thread ax)
    | _ -> true)
    && (not (Stmt.has_sync body))
    && Stmt.fold
         (fun ok s ->
           ok
           && match s with Stmt.Assign { var; _ } -> not (List.mem_assoc var cenv.svars) | _ -> true)
         true body
  in
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
     the licence to emit a [Binop] as float arithmetic ([Apply2]): an [I ,
     I] pair must keep taking the [int_binop] path, so only a proof that
     one side is [F] lets both sides be floats. *)
  let static_float cenv =
    float_valued
      (fun x -> match List.assoc_opt x cenv.svars with Some (Fslot _) -> true | _ -> false)
      is_float_buf
  in
  (* a let of [var] binds a float slot: its value is an [F _] ([var] is in
     [float_names], or the value is [static_float] and never reassigned),
     and not an unboxed int *)
  let float_let cenv var value =
    (not (static_int cenv value && never_assigned var))
    && (Hashtbl.mem float_names var || (static_float cenv value && never_assigned var))
  in
  (* the slot [svars] binds variable [x] to, when it is an int slot
     ([int_slot]: [Unboxed]) or a float slot ([float_slot]: [Fslot]); -1
     otherwise *)
  let rec int_slot x (svars : (string * sref) list) =
    match svars with
    | [] -> -1
    | (y, r) :: rest ->
      if String.equal x y then match r with Unboxed s -> s | _ -> -1 else int_slot x rest
  in
  let rec float_slot x (svars : (string * sref) list) =
    match svars with
    | [] -> -1
    | (y, r) :: rest ->
      if String.equal x y then match r with Fslot s -> s | _ -> -1 else float_slot x rest
  in
  (* [e] is linear when it is built from literals, int-slot variables, [+],
     [-] and [*] by a constant ([is_const]): evaluating it cannot raise, and
     in the engine's wrapping arithmetic it equals its constant term plus
     the sum of its coefficients ([coef]) times its slots ([int_slots]) *)
  let rec is_const (e : Expr.t) =
    match e with
    | Int _ -> true
    | Binop ((Add | Sub | Mul), l, r) -> is_const l && is_const r
    | _ -> false
  in
  let rec is_linear cenv (e : Expr.t) =
    match e with
    | Int _ -> true
    | Var x -> int_slot x cenv.svars >= 0
    | Binop ((Add | Sub), l, r) -> is_linear cenv l && is_linear cenv r
    | Binop (Mul, l, r) -> (is_const l && is_linear cenv r) || (is_linear cenv l && is_const r)
    | _ -> false
  in
  (* the coefficient of int slot [s] in the linear [e]; for [s = -1], its
     constant term *)
  let rec coef cenv s (e : Expr.t) =
    match e with
    | Int n -> if s < 0 then n else 0
    | Var x -> if s >= 0 && int_slot x cenv.svars = s then 1 else 0
    | Binop (Add, l, r) -> coef cenv s l + coef cenv s r
    | Binop (Sub, l, r) -> coef cenv s l - coef cenv s r
    | Binop (Mul, l, r) when is_const l -> coef cenv (-1) l * coef cenv s r
    | Binop (Mul, l, r) -> coef cenv s l * coef cenv (-1) r
    | _ -> 0
  in
  (* the int slots [e] reads, each once, onto [acc] *)
  let rec int_slots cenv (e : Expr.t) acc =
    match e with
    | Var x ->
      let s = int_slot x cenv.svars in
      if s < 0 || List.mem s acc then acc else s :: acc
    | Binop (_, l, r) -> int_slots cenv l (int_slots cenv r acc)
    | _ -> acc
  in
  (* the linear [e] as a [lin] *)
  let lin_of cenv e =
    let slots = Array.of_list (int_slots cenv e []) in
    let coefs = Array.make (Array.length slots) 0 in
    for j = 0 to Array.length slots - 1 do
      coefs.(j) <- coef cenv slots.(j) e
    done;
    { k = coef cenv (-1) e; slots; coefs }
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
      fun fr ->
        let a = cl fr in
        let b = cr fr in
        (match (a, b) with
        | I x, I y -> int_binop op x y
        | _ -> float_binop op (to_float a) (to_float b))
    | Unop (op, x) ->
      let cx = comp cenv x in
      fun fr -> unop op (cx fr)
    | Select (c, t, f) ->
      let cc = comp cenv c in
      let ct = comp cenv t in
      let cf = comp cenv f in
      fun fr -> if truthy (cc fr) then ct fr else cf fr
    | Cast (d, x) ->
      let cx = comp cenv x in
      if Dtype.is_float d then fun fr -> F (to_float (cx fr)) else fun fr -> I (to_int (cx fr))
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
      (* the operators the workloads run written out, so the arithmetic is
         a direct instruction in the closure body; the rest take
         [int_binop] *)
      (match op with
      | Add ->
        fun fr ->
          let x = il fr in
          let y = ir fr in
          x + y
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
      | Lt ->
        fun fr ->
          let x = il fr in
          let y = ir fr in
          if x < y then 1 else 0
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
      | _ ->
        fun fr ->
          let x = il fr in
          let y = ir fr in
          to_int (int_binop op x y))
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
    | Unop (Not, x) ->
      let cx = comp cenv x in
      fun fr -> if truthy (cx fr) then 0 else 1
    | _ ->
      let c = comp cenv e in
      fun fr -> to_int (c fr)
  and comp_int cenv (e : Expr.t) : frame -> int =
    match e with
    | Int n -> fun _ -> n
    | Binop _ when is_linear cenv e ->
      (* one closure over the combination instead of a closure per node *)
      let l = lin_of cenv e in
      fun fr -> lin_eval fr.ints l
    | _ when static_int cenv e -> comp_iint cenv e
    | _ ->
      let c = comp cenv e in
      fun fr -> to_int (c fr)
  in
  let bound cenv b = List.mem_assoc b cenv.bvars in
  (* float arithmetic over loads, literals and float slots: an [F _] when
     every load reads a float tensor ([Int] literals only next to a float);
     every index is linear *)
  let rec lfloat cenv (e : Expr.t) =
    match e with
    | Float _ -> true
    | Load (b, i) -> bound cenv b && is_linear cenv i
    | Var x -> float_slot x cenv.svars >= 0
    | Binop ((Add | Sub | Mul | Div | Min | Max), l, r) ->
      (lfloat cenv l && lnum cenv r) || (lnum cenv l && lfloat cenv r)
    | Unop ((Exp | Log | Sqrt | Rsqrt | Tanh | Erf | Recip | Floor), x) -> lnum cenv x
    | Unop ((Neg | Abs), x) -> lfloat cenv x
    | _ -> false
  and lnum cenv (e : Expr.t) = match e with Int _ -> true | _ -> lfloat cenv e in
  (* [e] is linear and reads none of the counter slots [cs] *)
  let invariant cenv cs e =
    is_linear cenv e && int_slots cenv e [] |> List.for_all (fun s -> not (List.mem s cs))
  in
  (* The inner levels of the nest a loop heads, whose counter slots so far
     are [cs]: a chain of single non-thread loops whose counters are never
     assigned and whose bounds are linear without the counters. Gives the
     environment binding them, each level's [For] statement, counter slot
     and bounds, and the statement the chain ends in. *)
  let rec chain cenv cs levels body =
    match body with
    | [ (Stmt.For { var; lo; extent; kind; body = inner } as st) ]
      when (match kind with
           | Stmt.Parallel ax -> (not (Axis.is_thread ax)) || serial_threads cenv inner
           | _ -> true)
           && never_assigned var && invariant cenv cs lo && invariant cenv cs extent ->
      let s = fresh_int () in
      chain
        { cenv with svars = (var, Unboxed s) :: cenv.svars }
        (s :: cs)
        ((st, s, lin_of cenv lo, lin_of cenv extent) :: levels)
        inner
    | _ -> (cenv, List.rev levels, body)
  in
  (* the access of [accs] into buffer slot [slot] at index [e] *)
  let rec find_access slot e = function
    | [] -> None
    | (slot', e', a) :: rest ->
      if slot = slot' && Expr.equal e' e then Some a else find_access slot e rest
  in
  (* the access of the nest [nb] into buffer [b] at index [e], one per
     buffer slot and index *)
  let access nb b e =
    let cenv = nb.nenv in
    let slot = List.assoc b cenv.bvars in
    match find_access slot e nb.naccs with
    | Some a -> a
    | None ->
      let counters = nb.ncounters in
      let depth = Array.length counters in
      let strides = Array.make depth 0 in
      for l = 0 to depth - 1 do
        strides.(l) <- coef cenv counters.(l) e
      done;
      let base = scratch_int nb.nnext in
      let row = if depth = 1 then base else scratch_int (nb.nnext + 1) in
      nb.nnext <- (if depth = 1 then nb.nnext + 1 else nb.nnext + 2);
      let a =
        { slot;
          form = lin_of cenv e;
          strides;
          base;
          (* the outer of the two levels that run as rows *)
          ostride = strides.(if depth > 2 then depth - 2 else 0);
          stride = strides.(depth - 1);
          row;
          size = (match List.assoc_opt slot nb.nsizes with Some n -> n | None -> -1)
        }
      in
      nb.naccs <- (slot, e, a) :: nb.naccs;
      a
  in
  (* [e]'s instructions in postfix, last first, onto [code]: [load b i]
     is the instruction of a load of [b] at [i], and [is_float] holds of
     the subtrees that provably evaluate to [F _]. A program computes
     [to_float] of [comp]'s value, with [comp]'s operand order and errors:
     an operator whose operand is provably a float takes the float
     arithmetic [float_binop] or [unop] would, and anything else is one
     [comp] closure, which lowered code ([lfloat]) never reaches. *)
  let rec emit cenv ~load ~is_float (e : Expr.t) code =
    let emit e code = emit cenv ~load ~is_float e code in
    match e with
    | Int n -> Push_const (float_of_int n) :: code
    | Float c -> Push_const c :: code
    | Var x when float_slot x cenv.svars >= 0 -> Push_slot (float_slot x cenv.svars) :: code
    | Load (b, i) -> load b i :: code
    | Binop (((Add | Sub | Mul | Div | Min | Max) as op), l, r) when is_float l || is_float r ->
      Apply2 op :: emit r (emit l code)
    | Unop (((Exp | Log | Sqrt | Rsqrt | Tanh | Erf | Recip | Floor) as op), x) ->
      Apply1 op :: emit x code
    | Unop (((Neg | Abs) as op), x) when is_float x -> Apply1 op :: emit x code
    | _ -> Push_value (comp cenv e) :: code
  in
  (* [value] in postfix, with the accesses of its loads in order and the
     first float slot of its stack *)
  let lower_value nb value =
    let loads = ref [] in
    let load b i =
      let a = access nb b i in
      loads := a :: !loads;
      Push_load a
    in
    let code = emit nb.nenv ~load ~is_float:(lfloat nb.nenv) value [] in
    (Array.of_list (List.rev !loads), Array.of_list (List.rev code), stack (stack_depth value))
  in
  (* the program of the float value [e] outside lowered code, followed by
     [tail], and the first float slot of its stack, where the value ends up
     when [tail] is empty *)
  let program cenv e tail =
    let load b i =
      let s = match List.assoc_opt b cenv.bvars with Some s -> s | None -> -1 in
      Push_get (comp_int cenv i, s, b)
    in
    let code = emit cenv ~load ~is_float:(static_float cenv) e [] in
    (Array.of_list (List.rev_append code tail), stack (stack_depth e))
  in
  (* the accesses the MAC or fold [value] reads (see [update_acc]), and its
     rows runner given the float slot of its accumulator and a row
     reduction into [dst] (see [mac_rows]) *)
  let lower_update nb (value : Expr.t) =
    match value with
    | Binop (Add, _, Binop (Mul, Load (a, ia), Load (b, ib))) ->
      let a = access nb a ia in
      let b = access nb b ib in
      ([| a; b |], fun f -> mac_rows f a b)
    | Binop (op, _, Load (a, ia)) ->
      let a = access nb a ia in
      ([| a |], fun f -> fold_rows op f a)
    | _ -> invalid_arg "lower_update"
  in
  (* The nest of a lowered loop with counter [s] whose levels below the
     loop's are [levels], ending in the statement [body], when the
     statement has a lowered form: a float store, or a float-slot update
     that is a MAC or a fold. [cenv] binds every counter, and [sizes] gives
     the buffer slots the loop's body allocates their declared sizes. *)
  let nest_path ~sizes cenv s levels body =
    let nb =
      { nenv = cenv;
        ncounters = Array.of_list (s :: List.map (fun (_, s, _, _) -> s) levels);
        nsizes = sizes;
        naccs = [];
        nnext = 0
      }
    in
    let depth = Array.length nb.ncounters in
    match body with
    | [ Stmt.Assign { var; value } ] -> (
      match update_acc value with
      | Some (Var x) when String.equal x var ->
        let _, rows = lower_update nb value in
        let nx = make_nest nb levels None in
        let rows = rows (float_slot var cenv.svars) None in
        Some
          { nx;
            stores = false;
            head = (fun fr lo ext -> run_level nx rows (-1) fr lo ext 0);
            below = below_rows nx rows
          }
      | _ -> None)
    | [ Stmt.Store { buf; index; value } ] ->
      let dst = access nb buf index in
      let plain =
        match value with
        | Binop (op, Load (a, ia), Load (b, ib)) ->
          let a = access nb a ia in
          op2_rows op dst a (access nb b ib)
        | _ ->
          let loads, code, sp0 = lower_value nb value in
          store_rows dst loads code sp0
      in
      (* the levels the index stays put in, from [still] down: with none,
         the store never reduces *)
      let still = ref depth in
      while !still > 0 && dst.strides.(!still - 1) = 0 do
        decr still
      done;
      let reduced =
        match (value, update_acc value) with
        | Binop (Add, (Load (b, i) as x), _), Some x'
          when x' == x && String.equal b buf && Expr.equal i index && !still < depth ->
          let loads, rows = lower_update nb value in
          let f = reduce_slot () in
          (* a one-level nest reduces whole, never per row *)
          let whole = rows f None in
          Some (f, loads, (if depth > 1 then rows f (Some dst) else whole), whole)
        | _ -> None
      in
      let nx, reduced =
        match reduced with
        | Some (f, loads, per_row, whole) ->
          (make_nest nb levels (Some (dst, f)), Some (loads, per_row, whole))
        | None -> (make_nest nb levels None, None)
      in
      Some
        { nx;
          stores = true;
          head = (fun fr lo ext -> store_levels nx dst plain reduced fr lo ext 0);
          below =
            (match reduced with
            | None -> below_rows nx plain
            | Some _ -> fun fr -> store_levels nx dst plain reduced fr 0 0 1)
        }
    | _ -> invalid_arg "nest_path"
  in
  (* the levels of the nest [st] heads below the loop with counter [s],
     and its lowered form if it has one (see [nest_path]). The stack of
     the statement's per-element program is reserved with it, as the
     loop's per-element body compiles lazily (see [comp_stmt_body]). *)
  let nest_item ~sizes cenv s st =
    let ienv, levels, stmt = chain cenv [ s ] [] [ st ] in
    let path value =
      ignore (stack (stack_depth value) : int);
      nest_path ~sizes ienv s levels stmt
    in
    ( levels,
      match stmt with
      | [ Stmt.Assign { var; value } ] when float_slot var ienv.svars >= 0 && lfloat ienv value ->
        path value
      | [ Stmt.Store { buf; index; value } ]
        when bound ienv buf && is_linear ienv index && lfloat ienv value ->
        path value
      | _ -> None )
  in
  let level fixed (st, s, _, _) = (st, Level s) :: fixed in
  let one_nest counter it =
    { counter; nests = [| it |]; top = no_nest; stmts = 0; stored = 0; prog = [||]; sp = 0 }
  in
  (* The fast path of a loop with counter slot [s], bound in [cenv], when
     its [body] lowers (see [block_path]); the per-element body is compiled
     in the returned environment, which fixes the slots the lowered code
     reads (see [fixed]).

     A body of one statement runs as a nest from the loop's level, as does
     a body that is a perfect nest: a chain of single loops ([chain])
     ending in one statement. Each level's [lo] and extent is linear and
     reads none of the nest's counters, and every index is linear, so of
     degree at most one in the counters. The statement is a float store, a
     MAC [acc = acc + a[i] * b[j]] ([mac_rows]) or a fold [x = x op a[i]]
     ([fold_rows]) of a float slot. A store of two loads runs as
     [op2_rows], another store as [store_rows]; a store [d[f] = d[f] + e]
     whose [e] is a MAC or fold operand also gets the reduction of [d[f]]
     in a float slot. The nest's levels have no fast path of their own, as
     the loop's covers them.

     A longer body is a straight-line block of float lets, float-slot
     assignments and float stores, [Alloc]s of float tensors, and loops that
     head such nests, whose bounds read none of their counters nor [s]. An
     iteration runs it as one program ([run_fcode]): each statement's value
     in postfix and a [Pop_slot] or [Pop_at], an [Alloc], or a [Run] of a
     nest's levels. A loop heading a nest keeps a fast path of its own
     ([head_path]), which runs when the block's entry check fails. Ints
     bound in the body other than the counters, such as an int let, keep
     the loop per element, as does an empty body.

     A body that does not lower gives back every slot its lowering took,
     so the frame holds only the slots of code that runs. *)
  let lower_loop cenv s body =
    let taken = (!nints, !nfloats, !nbufs, !scratch_ints, !reduce_at, !stack_region) in
    let give_back (i, f, b, si, r, st) =
      nints := i;
      nfloats := f;
      nbufs := b;
      scratch_ints := si;
      reduce_at := r;
      stack_region := st
    in
    match body with
    | [ ((Stmt.For _ | Stmt.Assign _ | Stmt.Store _) as st) ] -> (
      match nest_item ~sizes:[] cenv s st with
      | levels, Some it ->
        ( Some (block_path (one_nest s it)),
          { cenv with fixed = List.fold_left level cenv.fixed levels } )
      | _, None ->
        give_back taken;
        (None, cenv))
    | [] -> (None, cenv)
    | _ ->
      (* the block's own statements, a one-level nest whose scope follows
         the block's *)
      let zb = { nenv = cenv; ncounters = [| s |]; nsizes = []; naccs = []; nnext = 0 } in
      let code = ref [] and nests = ref [] and stmts = ref 0 and stored = ref 0 in
      let depth = ref 0 in
      let value cenv e =
        zb.nenv <- cenv;
        depth := max !depth (stack_depth e);
        let load b i = Push_at (access zb b i) in
        code := emit cenv ~load ~is_float:(lfloat cenv) e !code;
        incr stmts
      in
      let rec build cenv fixed (body : Stmt.t list) =
        match body with
        | [] -> Some fixed
        | st :: _ when List.mem_assq st fixed -> None
        | (Stmt.Let { var; value = e } as st) :: rest when float_let cenv var e && lfloat cenv e ->
          let x = fresh_float () in
          value cenv e;
          code := Pop_slot x :: !code;
          build { cenv with svars = (var, Fslot x) :: cenv.svars } ((st, Slot x) :: fixed) rest
        | Stmt.Assign { var; value = e } :: rest
          when float_slot var cenv.svars >= 0 && lfloat cenv e ->
          value cenv e;
          code := Pop_slot (float_slot var cenv.svars) :: !code;
          build cenv fixed rest
        | Stmt.Store { buf; index; value = e } :: rest
          when bound cenv buf && is_linear cenv index && lfloat cenv e ->
          value cenv e;
          code := Pop_at (access zb buf index) :: !code;
          incr stored;
          build cenv fixed rest
        | (Stmt.Alloc { buf; dtype; size; _ } as st) :: rest when Dtype.is_float dtype && size >= 0 ->
          let b = fresh_buf () in
          code := Alloc (b, dtype, size) :: !code;
          incr stmts;
          zb.nsizes <- (b, size) :: zb.nsizes;
          build { cenv with bvars = (buf, b) :: cenv.bvars } ((st, Slot b) :: fixed) rest
        | (Stmt.For _ as st) :: rest -> (
          let fresh (st, _, _, _) = not (List.mem_assq st fixed) in
          match nest_item ~sizes:zb.nsizes cenv s st with
          | ((_, h, _, _) :: inner as levels), Some it when List.for_all fresh levels ->
            nests := it :: !nests;
            code := Run it.below :: !code;
            build cenv
              ((st, Head (h, head_path (one_nest s it))) :: List.fold_left level fixed inner)
              rest
          | _ -> None)
        | _ -> None
      in
      (match build cenv cenv.fixed body with
      | Some fixed ->
        let b =
          { counter = s;
            nests = Array.of_list (List.rev !nests);
            top = make_nest zb [] None;
            stmts = !stmts;
            stored = !stored;
            prog = Array.of_list (List.rev !code);
            sp = stack !depth
          }
        in
        (Some (block_path b), { cenv with fixed })
      | None ->
        give_back taken;
        (None, cenv))
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
      if float_let cenv var value then begin
        (* the value is an [F _]: storing its float is storing the value *)
        let s = match List.assq_opt stmt cenv.fixed with Some (Slot s) -> s | _ -> fresh_float () in
        let code, sp = program cenv value [ Pop_slot s ] in
        ({ cenv with svars = (var, Fslot s) :: cenv.svars }, fun _ fr -> run_fcode code fr 0 sp)
      end
      else if static_int cenv value && never_assigned var then begin
        let civ = comp_iint cenv value in
        let s = fresh_int () in
        ({ cenv with svars = (var, Unboxed s) :: cenv.svars }, fun _ fr -> fr.ints.(s) <- civ fr)
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
        let code, sp = program cenv value [ Pop_slot s ] in
        (cenv, fun _ fr -> run_fcode code fr 0 sp)
      | Some (Unboxed _) ->
        (* unreachable: requires [never_assigned] over the whole kernel,
           which is name-based and thus covers every binding of [var] *)
        (cenv, fun _ _ -> err "assignment to unbound variable %s" var)
      | None -> (cenv, fun _ _ -> err "assignment to unbound variable %s" var))
    | Stmt.Store { buf; index; value } ->
      let get = buf_slot cenv buf in
      let ci = comp_int cenv index in
      let code, sp = program cenv value [] in
      ( cenv,
        fun ctx fr ->
          let t = get fr in
          let i = ci fr in
          run_fcode code fr 0 sp;
          let v = Array.unsafe_get fr.floats sp in
          (* int dtypes truncate: [float_of_int (to_int v)] in value terms *)
          let v =
            if Dtype.is_float t.Tensor.dtype then v else float_of_int (int_of_float v)
          in
          buf_set t buf i v;
          ctx.stats.stores <- ctx.stats.stores + 1;
          match ctx.trace with Some f -> f buf i v | None -> () )
    | Stmt.Alloc { buf; dtype; size; _ } ->
      let s = match List.assq_opt stmt cenv.fixed with Some (Slot s) -> s | _ -> fresh_buf () in
      ({ cenv with bvars = (buf, s) :: cenv.bvars }, fun _ fr -> alloc_at fr s dtype size)
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
          ctx.stats.memcpy_elems <- ctx.stats.memcpy_elems + n )
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
        | _ :: e :: _ ->
          let code, sp = program cenv e [] in
          fun fr ->
            run_fcode code fr 0 sp;
            sp
        | _ -> fun _ -> err "%s: no scalar" name
      in
      let dname = i.dst.buf in
      let op = i.op in
      ( cenv,
        fun ctx fr ->
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
            ~srcs ~params ~floats:fr.floats ~fparam:cfparam fr )
    | Stmt.Sync ->
      ( cenv,
        fun ctx _ ->
          ctx.stats.barriers <- ctx.stats.barriers + 1;
          try Effect.perform Barrier with Effect.Unhandled _ -> () )
    | Stmt.For { var; lo; extent; kind = Stmt.Parallel ax; body }
      when Axis.is_thread ax && not (serial_threads cenv body) ->
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
      let contains_sync =
        Stmt.fold (fun found s -> match s with Stmt.Sync -> true | _ -> found) false innermost
      in
      let inner_loads =
        List.exists
          (fun (_, lo_e, ext_e) -> Expr.buffers_read lo_e <> [] || Expr.buffers_read ext_e <> [])
          (List.tl loops)
      in
      if contains_sync || inner_loads then (cenv, fiber_chain cloops cbody)
      else (cenv, thread_chain cenv env innermost cloops cbody)
    | Stmt.For { var; lo; extent; body; _ } ->
      let clo = comp_int cenv lo in
      let cext = comp_int cenv extent in
      if never_assigned var then begin
        let s, fast, benv =
          match List.assq_opt stmt cenv.fixed with
          | Some (Level s) -> (s, None, { cenv with svars = (var, Unboxed s) :: cenv.svars })
          | Some (Head (s, fast)) -> (s, Some fast, { cenv with svars = (var, Unboxed s) :: cenv.svars })
          | _ ->
            let s = fresh_int () in
            let fast, benv = lower_loop { cenv with svars = (var, Unboxed s) :: cenv.svars } s body in
            (s, fast, benv)
        in
        let per_element cbody ctx fr lo_v ext_v =
          for i = lo_v to lo_v + ext_v - 1 do
            Array.unsafe_set fr.ints s i;
            cbody ctx fr
          done
        in
        ( cenv,
          match fast with
          | None ->
            let cbody = comp_block benv body in
            fun ctx fr ->
              let lo_v = clo fr in
              let ext_v = cext fr in
              if ext_v < 0 then err "negative loop extent in %s" var;
              per_element cbody ctx fr lo_v ext_v
          | Some fast ->
            (* the per-element body compiles when the entry check first
               fails: the lowering fixed every slot the body binds (see
               [fixed]) and the stack its programs run on (see
               [nest_item] and the block's [sp]), so compiling it then
               adds no slot to the frame *)
            let cbody = ref None in
            let slots () = !nscalars + !nints + !nfloats + !nbufs in
            let per_element_body () =
              match !cbody with
              | Some c -> c
              | None ->
                let n = slots () in
                let c = comp_block benv body in
                assert (slots () = n);
                cbody := Some c;
                c
            in
            fun ctx fr ->
              let lo_v = clo fr in
              let ext_v = cext fr in
              if ext_v < 0 then err "negative loop extent in %s" var;
              if not (fast ctx fr lo_v ext_v) then
                per_element (per_element_body ()) ctx fr lo_v ext_v )
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
      ({ svars = []; bvars = []; fixed = [] }, [])
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
  (* a kind with no slot allocates nothing: [Array.make 0] is [[||]] *)
  let scalars = Array.make c.nscalars (I 0) in
  let ints = Array.make c.nints 0 in
  let floats = Array.make c.nfloats 0.0 in
  let bufs = Array.make c.nbufs dummy_tensor in
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
  { scalars; ints; floats; bufs; threads = no_frame }

let default_fuel = 200_000_000

let run_receipt ?(fuel = default_fuel) ?trace c args =
  let stats = fresh_stats () in
  let ctx = { stats; fuel; trace; lowered = 0 } in
  let frame = bind_args c args in
  let error = match c.code ctx frame with () -> None | exception Runtime_error m -> Some m in
  { stats; error; lowered = ctx.lowered }

(* [run_receipt] without the receipt: a runtime error propagates *)
let run ?(fuel = default_fuel) ?trace c args =
  let stats = fresh_stats () in
  let frame = bind_args c args in
  c.code { stats; fuel; trace; lowered = 0 } frame;
  stats
