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
            let recomposed =
              Linear.normalize
                Expr.(
                  Binop
                    ( Add,
                      lo,
                      Binop
                        (Add, Binop (Mul, Var outer_var, Int factor), Var inner_var) ))
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
                          Binop
                            ( Lt,
                              Binop
                                (Add, Binop (Mul, Var outer_var, Int factor), Var inner_var),
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
   iteration (the read-modify-write idiom). Checked by enumerating the small
   constant iteration space with other variables fixed, except where the
   closed form below decides the enumeration's answer exactly. *)

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
