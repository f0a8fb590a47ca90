open Xpiler_ir

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

let wrap_result f = match f () with k -> Ok k | exception Failed m -> Error m

(* ---- loop recovery ----------------------------------------------------- *)

let contains_sync = Stmt.has_sync

(* split a block at its top-level Syncs *)
let split_at_syncs block =
  let rec go current acc = function
    | [] -> List.rev (List.rev current :: acc)
    | Stmt.Sync :: rest -> go [] (List.rev current :: acc) rest
    | s :: rest -> go (s :: current) acc rest
  in
  go [] [] block |> List.filter (fun seg -> seg <> [])

let wrap_serial loops body =
  List.fold_right
    (fun (var, lo, extent) acc ->
      [ Stmt.For { var; lo; extent; kind = Stmt.Serial; body = acc } ])
    loops body

(* lockstep-preserving sequentialization of a thread group: the loops list is
   the (flattened) thread nest, body is executed by its cartesian space *)
let rec lockstep loops body =
  if not (contains_sync body) then wrap_serial loops body
  else begin
    let segments = split_at_syncs body in
    match segments with
    | [] -> []
    | [ single ] -> (
      (* the barrier hides inside a sub-statement: interchange the thread
         loops into the serial loop that contains it *)
      match Rewrite.inline_leading_lets single with
      | [ Stmt.For r ] when r.kind = Stmt.Serial ->
        List.iter
          (fun (v, _, _) ->
            if
              Expr.contains_var v r.lo || Expr.contains_var v r.extent
            then fail "cannot interchange: serial loop bounds depend on thread index %s" v)
          loops;
        [ Stmt.For { r with body = lockstep loops r.body } ]
      | [ Stmt.If _ ] ->
        fail "barrier under divergent control flow cannot be sequentialized"
      | _ -> fail "barrier region is not a single serial loop after let-inlining")
    | segments -> List.concat_map (fun seg -> lockstep loops seg) segments
  end

let recovery (k : Kernel.t) =
  wrap_result (fun () ->
      let rec seq block = List.concat_map seq_stmt block
      and seq_stmt stmt =
        match stmt with
        | Stmt.For ({ kind = Stmt.Parallel ax; _ } as r) when Axis.is_thread ax ->
          (* flatten the immediately-nested thread chain, as the hardware
             barrier covers the whole thread block *)
          let rec chain acc body =
            match body with
            | [ Stmt.For ({ kind = Stmt.Parallel ax'; _ } as r') ] when Axis.is_thread ax' ->
              chain ((r'.var, r'.lo, r'.extent) :: acc) r'.body
            | _ -> (List.rev acc, body)
          in
          let inner_loops, innermost = chain [ (r.var, r.lo, r.extent) ] r.body in
          lockstep inner_loops (seq innermost)
        | Stmt.For ({ kind = Stmt.Parallel _; _ } as r) ->
          [ Stmt.For { r with kind = Stmt.Serial; body = seq r.body } ]
        | Stmt.For r -> [ Stmt.For { r with body = seq r.body } ]
        | Stmt.If r -> [ Stmt.If { r with then_ = seq r.then_; else_ = seq r.else_ } ]
        | s -> [ s ]
      in
      (* barriers inside thread groups are consumed by [lockstep]; any
         barrier left over was outside thread-level parallelism and is a
         no-op sequentially *)
      let rec drop_syncs block =
        List.concat_map
          (fun s ->
            match s with
            | Stmt.Sync -> []
            | Stmt.For r -> [ Stmt.For { r with body = drop_syncs r.body } ]
            | Stmt.If r ->
              [ Stmt.If { r with then_ = drop_syncs r.then_; else_ = drop_syncs r.else_ } ]
            | s -> [ s ])
          block
      in
      let body = drop_syncs (seq k.Kernel.body) in
      (* rename axis-named loop variables to plain serial names *)
      let axis_names = List.map Axis.to_string Axis.all in
      let k' = Kernel.with_launch (Kernel.with_body k body) [] in
      let next = Rewrite.fresh_serial_names k' in
      let rec rename block =
        List.map
          (fun stmt ->
            match stmt with
            | Stmt.For r when List.mem r.var axis_names ->
              let v = next () in
              Stmt.For
                { r with
                  var = v;
                  body = rename (Stmt.subst_var r.var (Expr.Var v) r.body)
                }
            | Stmt.For r -> Stmt.For { r with body = rename r.body }
            | Stmt.If r -> Stmt.If { r with then_ = rename r.then_; else_ = rename r.else_ }
            | s -> s)
          block
      in
      Kernel.with_body k' (rename body))

(* ---- loop bind ---------------------------------------------------------- *)

let bind ~var ~axis (k : Kernel.t) =
  wrap_result (fun () ->
      if List.mem_assoc axis k.Kernel.launch then
        fail "axis %s is already bound" (Axis.to_string axis);
      let bound = ref 0 in
      let body =
        Rewrite.rewrite_loop var
          (fun ~var:_ ~lo ~extent ~kind ~body ->
            if kind <> Stmt.Serial then fail "loop %s is not sequential" var;
            (match Expr.simplify lo with
            | Expr.Int 0 -> ()
            | _ -> fail "loop %s must start at 0 to be bound" var);
            let extent_v =
              match Rewrite.const_extent extent with Ok n -> n | Error m -> fail "%s" m
            in
            bound := extent_v;
            let axis_name = Axis.to_string axis in
            [ Stmt.For
                { var = axis_name;
                  lo = Expr.Int 0;
                  extent = Expr.Int extent_v;
                  kind = Stmt.Parallel axis;
                  body = Stmt.subst_var var (Expr.Var axis_name) body
                }
            ])
          k.Kernel.body
      in
      match body with
      | None -> fail "no loop named %s" var
      | Some body ->
        Kernel.with_launch (Kernel.with_body k body) (k.Kernel.launch @ [ (axis, !bound) ]))

(* ---- loop split ---------------------------------------------------------- *)

let split ~var ~factor (k : Kernel.t) =
  wrap_result (fun () ->
      if factor <= 0 then fail "split factor must be positive";
      let body =
        Rewrite.rewrite_loop var
          (fun ~var ~lo ~extent ~kind ~body ->
            let e =
              match Rewrite.const_extent extent with Ok n -> n | Error m -> fail "%s" m
            in
            if factor > e then fail "split factor %d exceeds extent %d" factor e;
            let outer_var = var ^ "_0" and inner_var = var ^ "_1" in
            let index = Expr.(Binop (Add, Binop (Mul, Var outer_var, Int factor), Var inner_var)) in
            let recomposed =
              match lo with
              (* [normalize]'s form of [v_0 * f + v_1]: the sum sorted by
                 atom, and a coefficient of 1 dropped *)
              | Expr.Int 0 ->
                if factor = 1 then Expr.(Binop (Add, Var outer_var, Var inner_var)) else index
              | _ -> Linear.normalize (Expr.Binop (Add, lo, index))
            in
            let inner_body = Stmt.subst_var var recomposed body in
            let divides = e mod factor = 0 in
            let outer_extent = if divides then e / factor else ((e + factor - 1) / factor) in
            let guarded =
              if divides then inner_body
              else
                [ Stmt.If
                    { cond =
                        Expr.(
                          Binop (Lt, index, Int e));
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
                        { var = inner_var;
                          lo = Expr.Int 0;
                          extent = Expr.Int factor;
                          kind = Stmt.Serial;
                          body = guarded
                        }
                    ]
                }
            ])
          k.Kernel.body
      in
      match body with
      | None -> fail "no loop named %s" var
      | Some body -> Kernel.with_body k body)

(* ---- loop fuse ----------------------------------------------------------- *)

let fuse ~var (k : Kernel.t) =
  wrap_result (fun () ->
      let body =
        Rewrite.rewrite_loop var
          (fun ~var ~lo ~extent ~kind ~body ->
            (match Expr.simplify lo with
            | Expr.Int 0 -> ()
            | _ -> fail "fuse requires zero lower bound");
            match body with
            | [ Stmt.For inner ] when inner.kind = Stmt.Serial ->
              (match Expr.simplify inner.lo with
              | Expr.Int 0 -> ()
              | _ -> fail "fuse requires zero lower bound on the inner loop");
              let e1 =
                match Rewrite.const_extent extent with Ok n -> n | Error m -> fail "%s" m
              in
              let e2 =
                match Rewrite.const_extent inner.extent with
                | Ok n -> n
                | Error m -> fail "%s" m
              in
              let fused_var = var ^ "_f" in
              let b =
                Stmt.subst_var var
                  Expr.(Binop (Div, Var fused_var, Int e2))
                  (Stmt.subst_var inner.var
                     Expr.(Binop (Mod, Var fused_var, Int e2))
                     inner.body)
              in
              [ Stmt.For
                  { var = fused_var;
                    lo = Expr.Int 0;
                    extent = Expr.Int (e1 * e2);
                    kind;
                    body = b
                  }
              ]
            | _ -> fail "loop %s does not perfectly nest a serial loop" var)
          k.Kernel.body
      in
      match body with
      | None -> fail "no loop named %s" var
      | Some body -> Kernel.with_body k body)

(* ---- loop reorder -------------------------------------------------------- *)

(* interchange legality: within the 2-D iteration space, no store may hit the
   same address twice (write-write order would change), and any buffer both
   read and written must only be read at the address it stores in the same
   iteration (the read-modify-write idiom).

   One walk collects every store and load. The read-modify-write rule
   compares each access of a stored, read buffer with the buffer's first
   store: structurally, then by the two [Linear.decompose]s, and by
   [Linear.equal_linear] only where neither settles it. Injectivity is
   decided per buffer: a buffer with one store whose index is affine in
   plain variables (fused-loop [x / c * c + x % c] pairs included) has a
   closed form ([affine_injective]); any other buffer enumerates the small
   constant box with every other variable at 0 ([box_injective]), which is
   exact only when each pair of its stores differs by a constant outside
   the two loop variables. *)

(* one store, or one load of a buffer; [counted] is whether
   [Stmt.buffers_read] sees the load (a copy's or an intrinsic's offsets and
   parameters are not reads of their buffers there), and [dec] is the index
   decomposed at most once *)
type access = {
  buf : string;
  index : Expr.t;
  counted : bool;
  mutable dec : Linear.decomp option;
}

let decomposition a =
  match a.dec with
  | Some d -> d
  | None ->
    let d = Linear.decompose a.index in
    a.dec <- Some d;
    d

(* [Linear.equal_linear x.index y.index]: equal expressions are equal, and
   decompositions over plain atoms settle a difference; normal forms are
   built only for what is left (an atom such as [j % 1], which
   simplification removes, or the same terms in another order) *)
let same_index x y =
  Expr.equal x.index y.index
  || (not (Linear.normal_forms_differ (decomposition x) (decomposition y)))
     && Linear.equal_linear x.index y.index

(* the stores, newest first, every load (any order), and the buffers a copy
   or an intrinsic reads *)
type accesses = {
  mutable stores : access list;
  mutable loads : access list;
  mutable copied : string list;
}

let rec scan w counted (e : Expr.t) =
  match e with
  | Int _ | Float _ | Var _ -> ()
  | Load (buf, index) ->
    w.loads <- { buf; index; counted; dec = None } :: w.loads;
    scan w counted index
  | Binop (_, l, r) ->
    scan w counted l;
    scan w counted r
  | Unop (_, x) | Cast (_, x) -> scan w counted x
  | Select (c, t, f) ->
    scan w counted c;
    scan w counted t;
    scan w counted f

let rec scan_sources w = function
  | [] -> ()
  | (r : Intrin.buf_ref) :: rest ->
    w.copied <- r.buf :: w.copied;
    scan w false r.offset;
    scan_sources w rest

let rec scan_params w = function
  | [] -> ()
  | e :: rest ->
    scan w false e;
    scan_params w rest

(* the pre-order walk of [Stmt.iter] *)
let rec collect w = function
  | [] -> ()
  | s :: rest ->
    (match s with
    | Stmt.For r ->
      scan w true r.lo;
      scan w true r.extent;
      collect w r.body
    | Stmt.Let { value; _ } | Stmt.Assign { value; _ } -> scan w true value
    | Stmt.Store r ->
      w.stores <- { buf = r.buf; index = r.index; counted = true; dec = None } :: w.stores;
      scan w true r.index;
      scan w true r.value
    | Stmt.If r ->
      scan w true r.cond;
      collect w r.then_;
      collect w r.else_
    | Stmt.Memcpy r ->
      w.copied <- r.src.buf :: w.copied;
      scan w false r.dst.offset;
      scan w false r.src.offset;
      scan w false r.len
    | Stmt.Intrinsic i ->
      scan w false i.dst.offset;
      scan_sources w i.srcs;
      scan_params w i.params
    | Stmt.Alloc _ | Stmt.Sync | Stmt.Annot _ -> ());
    collect w rest

(* [s] is the first store of its buffer in [stores] (program order) *)
let rec is_first s = function
  | [] -> false
  | s' :: rest -> if String.equal s'.buf s.buf then s' == s else is_first s rest

let rec read_counted buf = function
  | [] -> false
  | (l : access) :: rest -> (l.counted && String.equal l.buf buf) || read_counted buf rest

let rec mem_string x = function [] -> false | y :: rest -> String.equal x y || mem_string x rest

(* every access of [s.buf] in the list but [s] itself equals [s] *)
let rec all_same s = function
  | [] -> true
  | x :: rest -> (x == s || (not (String.equal x.buf s.buf)) || same_index x s) && all_same s rest

(* every access of a stored buffer that is also read equals its first store *)
let rmw_ok w stores =
  let rec go = function
    | [] -> true
    | s :: rest ->
      ((not (is_first s stores))
      || (not (read_counted s.buf w.loads || mem_string s.buf w.copied))
      || (all_same s stores && all_same s w.loads))
      && go rest
  in
  go stores

(* an index [eval_int] evaluates without raising and [Linear.decompose]
   represents without dropping anything *)
let rec int_polynomial = function
  | Expr.Int _ | Expr.Var _ -> true
  | Expr.Binop ((Expr.Add | Expr.Sub | Expr.Mul), l, r) -> int_polynomial l && int_polynomial r
  | Expr.Unop (Expr.Neg, x) -> int_polynomial x
  | _ -> false

let rec has_var = function
  | Expr.Var _ -> true
  | Expr.Int _ -> false
  | Expr.Binop (_, l, r) -> has_var l || has_var r
  | Expr.Unop (_, x) -> has_var x
  | _ -> true

(* the coefficients of [v1] and [v2] in an index, summed with the wrapping
   arithmetic of [eval_int] and [Linear.decompose]. [affine] stays set only
   when [eval_int] computes c1*v1 + c2*v2 + (plain variables) + const
   without raising: sums, differences, negations, products with a
   variable-free polynomial factor, and the fused-loop pair
   [x / c * c + x % c] (c > 0), which evaluates to [x] *)
type coeffs = { mutable c1 : int; mutable c2 : int; mutable affine : bool }

let rec add_coeffs acc ~v1 ~v2 m (e : Expr.t) =
  match e with
  | Int _ -> ()
  | Var x ->
    if String.equal x v1 then acc.c1 <- acc.c1 + m;
    if String.equal x v2 then acc.c2 <- acc.c2 + m
  | Binop (Add, Binop (Mul, Binop (Div, x, Int c), Int c'), Binop (Mod, x', Int c''))
    when c > 0 && c = c' && c = c'' && Expr.equal x x' ->
    add_coeffs acc ~v1 ~v2 m x
  | Binop (Add, l, r) ->
    add_coeffs acc ~v1 ~v2 m l;
    add_coeffs acc ~v1 ~v2 m r
  | Binop (Sub, l, r) ->
    add_coeffs acc ~v1 ~v2 m l;
    add_coeffs acc ~v1 ~v2 (-m) r
  | Unop (Neg, x) -> add_coeffs acc ~v1 ~v2 (-m) x
  | Binop (Mul, l, r) when constant l -> add_coeffs acc ~v1 ~v2 (m * Expr.eval_int (fun _ -> 0) l) r
  | Binop (Mul, l, r) when constant r -> add_coeffs acc ~v1 ~v2 (m * Expr.eval_int (fun _ -> 0) r) l
  | _ -> acc.affine <- false

and constant e = int_polynomial e && not (has_var e)

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
   when the index is outside that class. A polynomial with a product whose
   factors both mention a variable is left to its decomposition. *)
let affine_injective ~v1 ~e1 ~v2 ~e2 store =
  let acc = { c1 = 0; c2 = 0; affine = true } in
  add_coeffs acc ~v1 ~v2 1 store.index;
  let coeffs =
    if not (int_polynomial store.index) then
      (* the fused-loop pair; [reorder] never has v1 = v2, where the
         environment binds one variable and the box enumeration decides *)
      if acc.affine && not (String.equal v1 v2) then Some (acc.c1, acc.c2) else None
    else if acc.affine then Some (acc.c1, acc.c2)
    else begin
      let d = decomposition store in
      if List.for_all (function Expr.Var _, _ -> true | _ -> false) d.Linear.terms then
        Some (Linear.coeff_of_var v1 d, Linear.coeff_of_var v2 d)
      else None
    end
  in
  let small c = c > -coeff_limit && c < coeff_limit in
  match coeffs with
  | Some (c1, c2) when small c1 && small c2 ->
    if c1 = 0 && c2 = 0 then Some (e1 * e2 <= 1)
    else begin
      let g = gcd c1 c2 in
      Some (not (abs (c2 / g) <= e1 - 1 && abs (c1 / g) <= e2 - 1))
    end
  | _ -> None

(* whether two indexes differ by a constant once [v1] and [v2] are dropped:
   every other atom has the same coefficient in both decompositions *)
let rec covered ~v1 ~v2 (terms : (Expr.t * int) list) (d' : Linear.decomp) =
  match terms with
  | [] -> true
  | (a, c) :: rest ->
    (match a with
    | Expr.Var v when String.equal v v1 || String.equal v v2 -> true
    | _ -> List.exists (fun (a', c') -> c = c' && Expr.equal a a') d'.terms)
    && covered ~v1 ~v2 rest d'

let differ_by_constant ~v1 ~v2 x y =
  let dx = decomposition x and dy = decomposition y in
  covered ~v1 ~v2 dx.terms dy && covered ~v1 ~v2 dy.terms dx

(* whether one buffer's stores give each address to one iteration of the
   non-empty box, evaluating every point with other variables at 0: store j
   at point p is entry [j * n + p] of [values], and an address taken at two
   different points is a collision. An index that does not evaluate makes
   the nest illegal. *)
let box_injective ~v1 ~e1 ~v2 ~e2 stores =
  let n = e1 * e2 in
  let m = List.length stores in
  let a = ref 0 and b = ref 0 in
  let env x = if String.equal x v1 then !a else if String.equal x v2 then !b else 0 in
  let values = Array.make (m * n) 0 in
  let evaluated =
    try
      List.iteri
        (fun j s ->
          for p = 0 to n - 1 do
            a := p / e2;
            b := p mod e2;
            values.((j * n) + p) <- Expr.eval_int env s.index
          done)
        stores;
      true
    with _ -> false
  in
  evaluated
  &&
  if m = 1 then begin
    Array.sort Int.compare values;
    let ok = ref true in
    for k = 1 to n - 1 do
      if values.(k) = values.(k - 1) then ok := false
    done;
    !ok
  end
  else begin
    let order = Array.init (m * n) Fun.id in
    Array.sort (fun x y -> Int.compare values.(x) values.(y)) order;
    (* within a run of one address, every entry must come from the run's
       first point *)
    let ok = ref true and run = ref 0 in
    for k = 1 to (m * n) - 1 do
      if values.(order.(k)) <> values.(order.(!run)) then run := k
      else if order.(k) mod n <> order.(!run) mod n then ok := false
    done;
    !ok
  end

let decide ~v1 ~e1 ~v2 ~e2 s =
  match affine_injective ~v1 ~e1 ~v2 ~e2 s with
  | Some injective -> injective
  | None -> box_injective ~v1 ~e1 ~v2 ~e2 [ s ]

let rec outer_constant ~v1 ~v2 = function
  | [] -> true
  | s :: rest ->
    List.for_all
      (fun s' -> (not (String.equal s.buf s'.buf)) || differ_by_constant ~v1 ~v2 s s')
      rest
    && outer_constant ~v1 ~v2 rest

(* per buffer, an address may be written from at most one iteration of the
   (v1, v2) space: writes within one iteration keep their program order
   under interchange, writes from different iterations do not *)
let injective ~v1 ~e1 ~v2 ~e2 stores =
  match stores with
  | [] -> true
  | [ s ] -> e1 <= 0 || e2 <= 0 || decide ~v1 ~e1 ~v2 ~e2 s
  | _ ->
    outer_constant ~v1 ~v2 stores
    && (e1 <= 0 || e2 <= 0
       || List.for_all
            (fun s ->
              (not (is_first s stores))
              ||
              match List.filter (fun s' -> String.equal s'.buf s.buf) stores with
              (* with v1 = v2 the environment binds one variable, which the
                 closed form does not model *)
              | [ s ] when not (String.equal v1 v2) -> decide ~v1 ~e1 ~v2 ~e2 s
              | group -> box_injective ~v1 ~e1 ~v2 ~e2 group)
            stores)

let interchange_legal ~v1 ~e1 ~v2 ~e2 body =
  e1 * e2 <= 4096
  &&
  let w = { stores = []; loads = []; copied = [] } in
  collect w body;
  let stores = List.rev w.stores in
  rmw_ok w stores && injective ~v1 ~e1 ~v2 ~e2 stores

let reorder ~var (k : Kernel.t) =
  wrap_result (fun () ->
      let body =
        Rewrite.rewrite_loop var
          (fun ~var ~lo ~extent ~kind ~body ->
            match body with
            | [ Stmt.For inner ] ->
              (* the inner loop shadows the outer variable: swapping them
                 rebinds every use in the body to the other extent *)
              if String.equal var inner.var then
                fail "inner loop reuses the name %s; cannot interchange" var;
              if Expr.contains_var var inner.lo || Expr.contains_var var inner.extent then
                fail "inner loop bounds depend on %s; cannot interchange" var;
              (match (Rewrite.const_extent extent, Rewrite.const_extent inner.extent) with
              | Ok e1, Ok e2 ->
                if not (interchange_legal ~v1:var ~e1 ~v2:inner.var ~e2 inner.body) then
                  fail "interchange of %s and %s would reorder dependent writes" var inner.var
              | _ -> fail "interchange requires constant extents");
              [ Stmt.For
                  { inner with
                    body =
                      [ Stmt.For { var; lo; extent; kind; body = inner.body } ]
                  }
              ]
            | _ -> fail "loop %s does not perfectly nest another loop" var)
          k.Kernel.body
      in
      match body with
      | None -> fail "no loop named %s" var
      | Some body -> Kernel.with_body k body)

(* ---- loop expansion (fission) -------------------------------------------- *)

let expansion ~var (k : Kernel.t) =
  wrap_result (fun () ->
      let body =
        Rewrite.rewrite_loop var
          (fun ~var ~lo ~extent ~kind ~body ->
            let body = Rewrite.inline_leading_lets body in
            List.iter
              (fun s ->
                match s with
                | Stmt.Assign _ -> fail "loop %s carries scalar state; cannot distribute" var
                | Stmt.Alloc _ -> fail "loop %s allocates; cannot distribute" var
                | Stmt.Sync -> fail "loop %s contains a barrier; cannot distribute" var
                | Stmt.Let _ -> fail "interior let blocks distribution of loop %s" var
                | _ -> ())
              body;
            if List.length body < 2 then fail "loop %s has a single statement" var;
            (* distribution reorders statements across iterations: reject any
               cross-statement dataflow (a buffer written by one statement
               and touched by another) *)
            List.iteri
              (fun i s ->
                let written = Stmt.buffers_written [ s ] in
                List.iteri
                  (fun j s' ->
                    if i <> j then begin
                      let touched =
                        Stmt.buffers_read [ s' ] @ Stmt.buffers_written [ s' ]
                      in
                      List.iter
                        (fun b ->
                          if List.mem b touched then
                            fail
                              "buffer %s flows between statements of loop %s; cannot distribute"
                              b var)
                        written
                    end)
                  body)
              body;
            List.map
              (fun s -> Stmt.For { var; lo; extent; kind; body = [ s ] })
              body)
          k.Kernel.body
      in
      match body with
      | None -> fail "no loop named %s" var
      | Some body -> Kernel.with_body k body)

(* ---- loop contraction ----------------------------------------------------- *)

(* fusing adjacent loops interleaves their iterations: legal only when every
   cross-loop dependence is iteration-aligned (the producer-consumer case the
   paper's pass targets) and no buffer is written by both loops *)
let fusion_legal body1 body2 =
  let w1 = Stmt.buffers_written body1 and w2 = Stmt.buffers_written body2 in
  let r1 = Stmt.buffers_read body1 and r2 = Stmt.buffers_read body2 in
  (* no write-write sharing, no anti-dependence loop2 -> loop1 *)
  List.for_all (fun b -> not (List.mem b w2)) w1
  && List.for_all (fun b -> not (List.mem b r1)) w2
  &&
  (* flow dependences loop1 -> loop2 must be index-aligned *)
  List.for_all
    (fun b ->
      if not (List.mem b r2) then true
      else begin
        let stores = ref [] and loads = ref [] in
        Stmt.iter
          (fun s ->
            match s with
            | Stmt.Store { buf; index; _ } when String.equal buf b ->
              stores := index :: !stores
            | _ -> ())
          body1;
        Stmt.iter
          (fun s ->
            ignore
              (Stmt.map_exprs
                 (Expr.map (function
                   | Expr.Load (buf, idx) when String.equal buf b ->
                     loads := idx :: !loads;
                     None
                   | _ -> None))
                 s))
          body2;
        match !stores with
        | [ si ] -> List.for_all (fun li -> Linear.equal_linear si li) !loads
        | _ -> false
      end)
    w1

let contraction ~var (k : Kernel.t) =
  wrap_result (fun () ->
      let merged = ref false in
      let rec merge_block block =
        match block with
        | Stmt.For r1 :: Stmt.For r2 :: rest
          when String.equal r1.var var && String.equal r2.var var
               && Expr.equal r1.lo r2.lo && Expr.equal r1.extent r2.extent
               && r1.kind = r2.kind && fusion_legal r1.body r2.body ->
          merged := true;
          merge_block (Stmt.For { r1 with body = r1.body @ r2.body } :: rest)
        | Stmt.For r :: rest -> Stmt.For { r with body = merge_block r.body } :: merge_block rest
        | Stmt.If r :: rest ->
          Stmt.If { r with then_ = merge_block r.then_; else_ = merge_block r.else_ }
          :: merge_block rest
        | s :: rest -> s :: merge_block rest
        | [] -> []
      in
      let body = merge_block k.Kernel.body in
      if not !merged then fail "no adjacent loops named %s to contract" var;
      Kernel.with_body k body)
