(* Static pre-validation analyzer.

   Four checks over the affine IR, run before any interpreter-based unit
   test (paper §4's validation step). Each check is *sound for flagging*:
   a reported error is backed either by an interval proof or by a concrete
   witness from the bounded SMT solver, so golden kernels lint clean. What
   cannot be decided (data-dependent indices, unbounded loop variables,
   solver timeouts) is silently passed to the dynamic unit test, which
   remains the authority.

   1. Data races: affine read/write footprints of two iterations of a
      parallel loop are intersected; equal-stride windows are discharged by
      a stride>=span argument, everything else by asking the solver for a
      colliding pair of iterations.
   2. Barrier divergence: a Sync under control flow that depends on a
      thread-varying value deadlocks real hardware; the sequential
      interpreter cannot observe this.
   3. Out-of-bounds accesses: interval bounds of every index against the
      buffer extent, with guard-aware solver confirmation.
   4. Def-before-use on staged on-chip buffers: a read of a cache window
      that no path has written (the "omitted a staging copy" fault). *)

open Xpiler_ir
module Solver = Xpiler_smt.Solver

type check = Race | Barrier_divergence | Out_of_bounds | Uninit_read

let check_name = function
  | Race -> "race"
  | Barrier_divergence -> "barrier-divergence"
  | Out_of_bounds -> "out-of-bounds"
  | Uninit_read -> "uninit-read"

type finding = {
  check : check;
  diag : Diag.t;
  buffers : string list;
  sites : Site.t list;
}

let finding_to_string f =
  Printf.sprintf "%s %s" (Diag.to_string f.diag) ("(" ^ check_name f.check ^ ")")

let errors fs = List.filter (fun f -> Diag.is_error f.diag) fs

(* the repair site at [stmt], matched by physical identity: structurally
   equal statements at different positions are different sites. [table] is
   [Site.walk] of the analyzed kernel, forced by the first finding *)
let site_of table stmt =
  List.find_map (fun (site, s) -> if s == stmt then Some site else None) (Lazy.force table)

(* ---- access collection ------------------------------------------------------ *)

type access = {
  kind : [ `R | `W ];
  buf : string;
  start : Expr.t;  (* first element, lets resolved *)
  width : Expr.t;  (* element count, >= 1 *)
  where : string;
  stmt : Stmt.t;  (* the statement carrying the access, for repair sites *)
  guards : Expr.t list;  (* path conditions, lets resolved *)
  phase : int;  (* barrier phase within the collection root *)
  loops : Stmt.t list;  (* enclosing For statements, innermost first *)
  inner : (string * Footprint.bound) list;
      (* loop variables bound *inside* the collection root (distinct per
         parallel iteration); ranges when known *)
}

let one = Expr.Int 1

(* element footprints of an intrinsic, mirroring the interpreter's access
   pattern (lib/machine/interp.ml); accumulating ops also read their dst *)
let intrinsic_accesses (i : Intrin.t) : ([ `R | `W ] * Intrin.buf_ref * Expr.t) list =
  let open Expr in
  let src_reads w = List.map (fun (s : Intrin.buf_ref) -> (`R, s, w)) i.srcs in
  match (i.op, i.params) with
  | op, len :: _ when Intrin.is_vector op ->
    let dst_w =
      match op with Intrin.Vec_reduce_sum | Intrin.Vec_reduce_max -> one | _ -> len
    in
    ((`W, i.dst, dst_w) :: src_reads len)
  | (Intrin.Mma | Intrin.Mlp), [ m; k; n ] -> (
    let mn = Binop (Mul, m, n) in
    [ (`W, i.dst, mn); (`R, i.dst, mn) ]
    @
    match i.srcs with
    | [ a; b ] -> [ (`R, a, Binop (Mul, m, k)); (`R, b, Binop (Mul, k, n)) ]
    | _ -> [])
  | Intrin.Dp4a, len :: _ ->
    let groups = Binop (Div, len, Int 4) in
    [ (`W, i.dst, groups); (`R, i.dst, groups) ] @ src_reads len
  | Intrin.Conv2d, [ co; ci; kh; kw; ho; wo; stride ] -> (
    let out_w = Binop (Mul, Binop (Mul, ho, wo), co) in
    let wi = Binop (Add, Binop (Mul, Binop (Sub, wo, Int 1), stride), kw) in
    (* last input element the sliding window touches, + 1 *)
    let in_w =
      Binop
        ( Add,
          Binop
            ( Mul,
              Binop
                ( Add,
                  Binop
                    ( Mul,
                      Binop (Sub, Binop (Add, Binop (Mul, Binop (Sub, ho, Int 1), stride), kh), Int 1),
                      wi ),
                  Binop (Add, Binop (Mul, Binop (Sub, wo, Int 1), stride), Binop (Sub, kw, Int 1)) ),
              ci ),
          ci )
    in
    let wgt_w = Binop (Mul, Binop (Mul, co, kh), Binop (Mul, kw, ci)) in
    [ (`W, i.dst, out_w); (`R, i.dst, out_w) ]
    @
    match i.srcs with
    | [ inp; wgt ] -> [ (`R, inp, in_w); (`R, wgt, wgt_w) ]
    | _ -> [])
  | _ -> []

(* collect accesses in [block], resolving Let-bound scalars, tracking loop
   ranges, guards and (optionally) barrier phases.

   [root_env] gives ranges of variables bound outside the block; variables
   bound inside land in [inner]. [count_phases] is true when the block is
   the body of a thread-level parallel loop, where Sync is a barrier. *)
let collect ?(count_phases = false) ~root_env block =
  let out = ref [] in
  let phase = ref 0 in
  let emit ~ctx kind buf start width where stmt =
    let subst, env, guards, loops, inner = ctx in
    let resolve e =
      List.fold_left (fun e (v, value) -> Expr.subst_var v value e) e subst
    in
    ignore env;
    out :=
      { kind;
        buf;
        start = Linear.normalize (resolve start);
        width = resolve width;
        where;
        stmt;
        guards = List.map resolve guards;
        phase = !phase;
        loops;
        inner
      }
      :: !out
  in
  let emit_loads ~ctx where stmt e =
    Expr.fold
      (fun () sub ->
        match sub with
        | Expr.Load (buf, idx) -> emit ~ctx `R buf idx one where stmt
        | _ -> ())
      () e
  in
  let rec walk ctx block =
    let (subst, env, guards, loops, inner) = ctx in
    ignore (subst, env, guards, loops, inner);
    List.fold_left walk_stmt ctx block |> ignore
  and walk_stmt ctx s =
    let subst, env, guards, loops, inner = ctx in
    let resolve e =
      List.fold_left (fun e (v, value) -> Expr.subst_var v value e) e subst
    in
    match s with
    | Stmt.Let { var; value } ->
      let value = resolve value in
      emit_loads ~ctx ("let " ^ var) s value;
      (* only substitute deterministic scalar definitions *)
      let subst =
        if Expr.buffers_read value = [] then (var, value) :: List.remove_assoc var subst
        else List.remove_assoc var subst
      in
      (subst, env, guards, loops, inner)
    | Stmt.Assign { var; value } ->
      emit_loads ~ctx ("assign " ^ var) s (resolve value);
      (* mutable: forget any binding *)
      (List.remove_assoc var subst, env, guards, loops, inner)
    | Stmt.Store { buf; index; value } ->
      emit_loads ~ctx ("store " ^ buf) s (resolve index);
      emit_loads ~ctx ("store " ^ buf) s (resolve value);
      emit ~ctx `W buf index one ("store " ^ buf) s;
      ctx
    | Stmt.Memcpy { dst; src; len } ->
      emit_loads ~ctx "memcpy" s (resolve dst.offset);
      emit_loads ~ctx "memcpy" s (resolve src.offset);
      emit ~ctx `W dst.buf dst.offset len ("memcpy " ^ dst.buf) s;
      emit ~ctx `R src.buf src.offset len ("memcpy " ^ src.buf) s;
      ctx
    | Stmt.Intrinsic i ->
      let where = "intrinsic " ^ Intrin.op_name i.op in
      List.iter
        (fun (kind, (r : Intrin.buf_ref), width) -> emit ~ctx kind r.buf r.offset width where s)
        (intrinsic_accesses i);
      ctx
    | Stmt.Sync ->
      if count_phases then incr phase;
      ctx
    | Stmt.Alloc _ | Stmt.Annot _ -> ctx
    | Stmt.If { cond; then_; else_ } ->
      let cond = resolve cond in
      emit_loads ~ctx "if" s cond;
      walk (subst, env, Expr.Binop (Expr.Ne, cond, Expr.Int 0) :: guards, loops, inner) then_;
      walk
        (subst, env, Expr.Binop (Expr.Eq, cond, Expr.Int 0) :: guards, loops, inner)
        else_;
      ctx
    | Stmt.For r ->
      emit_loads ~ctx ("for " ^ r.var) s (resolve r.lo);
      emit_loads ~ctx ("for " ^ r.var) s (resolve r.extent);
      let lo_r = Footprint.range env (resolve r.lo) in
      let ext_r = Footprint.range env (resolve r.extent) in
      let dead = match ext_r with Some e when e.Footprint.hi <= 0 -> true | _ -> false in
      if not dead then begin
        let var_range =
          match (lo_r, ext_r) with
          | Some l, Some e ->
            Some { Footprint.lo = l.Footprint.lo; hi = l.Footprint.hi + e.Footprint.hi - 1 }
          | _ -> None
        in
        let subst' = List.remove_assoc r.var subst in
        let env', inner' =
          match var_range with
          | Some b -> ((r.var, b) :: env, (r.var, b) :: inner)
          | None -> (List.remove_assoc r.var env, inner)
        in
        walk (subst', env', guards, s :: loops, inner') r.body
      end;
      ctx
  in
  walk ([], root_env, [], [], []) block;
  List.rev !out

(* ---- solver plumbing --------------------------------------------------------- *)

let max_problem_size = 1_000_000
let max_steps = 400_000

(* a bounded-domain feasibility query; [None] = undecided *)
let feasible (env : Footprint.env) (constraints : Expr.t list) : (string * int) list option option =
  let vars =
    List.concat_map Expr.free_vars constraints
    |> List.sort_uniq String.compare
  in
  if not (List.for_all (fun v -> List.mem_assoc v env) vars) then None
  else begin
    let doms =
      List.map
        (fun v ->
          let b = List.assoc v env in
          (v, Solver.Range { lo = b.Footprint.lo; hi = b.Footprint.hi; stride = 1 }))
        vars
    in
    let size =
      List.fold_left
        (fun acc (_, d) ->
          match d with
          | Solver.Range { lo; hi; _ } -> acc * max 1 (hi - lo + 1)
          | Solver.Enum xs -> acc * max 1 (List.length xs))
        1 doms
    in
    if size > max_problem_size then None
    else begin
      match Solver.solve ~max_steps { vars = doms; constraints } with
      | Solver.Sat model, _ -> Some (Some model)
      | Solver.Unsat, _ -> Some None
      | Solver.Timeout, _ -> None
    end
  end

(* ---- check 3: out-of-bounds -------------------------------------------------- *)

let buffer_extents ?(extents = []) (k : Kernel.t) =
  let allocs = List.map (fun (b, _, _, size) -> (b, size)) (Stmt.allocs k.Kernel.body) in
  (* alloc sizes shadow caller-provided extents *)
  allocs @ extents

let check_oob ?(extents = []) ~table (k : Kernel.t) =
  let sizes = buffer_extents ~extents k in
  let accesses = collect ~root_env:[] k.Kernel.body in
  let findings = ref [] in
  List.iter
    (fun a ->
      match List.assoc_opt a.buf sizes with
      | None -> ()
      | Some size -> (
        (* env visible at the access: outer env is empty here, so [inner]
           carries every bounded loop variable on the path *)
        let env = a.inner in
        let last = Expr.Binop (Expr.Add, a.start, Expr.Binop (Expr.Sub, a.width, one)) in
        match (Footprint.range env a.start, Footprint.range env last) with
        | Some s_r, Some l_r
          when s_r.Footprint.lo >= 0 && l_r.Footprint.hi <= size - 1 ->
          () (* interval proof: in bounds *)
        | Some s_r, Some l_r -> (
          (* candidate violation; confirm reachability under the guards *)
          let violation =
            Expr.Binop
              ( Expr.Or,
                Expr.Binop (Expr.Lt, a.start, Expr.Int 0),
                Expr.Binop (Expr.Gt, last, Expr.Int (size - 1)) )
          in
          match feasible env (violation :: a.guards) with
          | Some (Some model) ->
            let witness =
              match model with
              | [] -> ""
              | m ->
                " at "
                ^ String.concat ", " (List.map (fun (v, n) -> Printf.sprintf "%s=%d" v n) m)
            in
            let bounds = List.filter_map (site_of table) a.loops in
            let sites =
              match site_of table a.stmt with
              | Some (Site.Param _ as p) -> p :: bounds
              | Some (Site.Index _ as i) -> bounds @ [ i ]
              | _ -> bounds
            in
            findings :=
              { check = Out_of_bounds;
                diag =
                  Diag.error `Memory a.where
                    (Printf.sprintf
                       "index range %s%s exceeds %s[%d]%s"
                       (Footprint.to_string s_r)
                       (if Expr.equal a.width one then ""
                        else Printf.sprintf "..%s" (Footprint.to_string l_r))
                       a.buf size witness);
                buffers = [ a.buf ];
                sites
              }
              :: !findings
          | Some None -> () (* guards exclude every violating point *)
          | None -> () (* undecided: leave it to the unit test *))
        | _ -> () (* unbounded index: data-dependent, dynamic validation's job *)))
    accesses;
  List.rev !findings

(* ---- check 4: def-before-use on staged on-chip buffers ----------------------- *)

let check_uninit (k : Kernel.t) =
  let onchip = Hashtbl.create 8 in
  let written = Hashtbl.create 8 in
  let flagged = Hashtbl.create 4 in
  let findings = ref [] in
  let read where buf =
    if Hashtbl.mem onchip buf && (not (Hashtbl.mem written buf))
       && not (Hashtbl.mem flagged buf)
    then begin
      Hashtbl.replace flagged buf ();
      findings :=
        { check = Uninit_read;
          diag =
            Diag.error `Memory where
              (Printf.sprintf
                 "read of on-chip buffer %s before any write reaches it (missing staging copy?)"
                 buf);
          buffers = [ buf ];
          sites = []
        }
        :: !findings
    end
  in
  let write buf = Hashtbl.replace written buf () in
  let reads_of s =
    match s with
    | Stmt.Store r -> Expr.buffers_read r.index @ Expr.buffers_read r.value
    | Stmt.Let { value; _ } | Stmt.Assign { value; _ } -> Expr.buffers_read value
    | Stmt.If r -> Expr.buffers_read r.cond
    | Stmt.For r -> Expr.buffers_read r.lo @ Expr.buffers_read r.extent
    | Stmt.Memcpy r ->
      (r.src.buf :: Expr.buffers_read r.dst.offset) @ Expr.buffers_read r.src.offset
    | Stmt.Intrinsic i ->
      let acc_dst =
        match i.op with
        | Intrin.Mma | Intrin.Mlp | Intrin.Conv2d | Intrin.Dp4a -> [ i.dst.buf ]
        | _ -> []
      in
      acc_dst @ List.map (fun (r : Intrin.buf_ref) -> r.buf) i.srcs
    | Stmt.Alloc _ | Stmt.Sync | Stmt.Annot _ -> []
  in
  let where_of s =
    match s with
    | Stmt.Store r -> "store " ^ r.buf
    | Stmt.Memcpy r -> "memcpy " ^ r.src.buf
    | Stmt.Intrinsic i -> "intrinsic " ^ Intrin.op_name i.op
    | Stmt.Let r -> "let " ^ r.var
    | Stmt.Assign r -> "assign " ^ r.var
    | Stmt.If _ -> "if"
    | Stmt.For r -> "for " ^ r.var
    | _ -> "body"
  in
  let rec walk block =
    List.iter
      (fun s ->
        match s with
        | Stmt.Alloc r when Scope.is_on_chip r.scope -> Hashtbl.replace onchip r.buf ()
        | Stmt.For r ->
          List.iter (read (where_of s)) (reads_of s);
          (* any write in the body may precede a read in a later iteration:
             register the whole body's write set before walking it *)
          List.iter write (Stmt.buffers_written r.body);
          walk r.body
        | Stmt.If r ->
          List.iter (read (where_of s)) (reads_of s);
          List.iter write (Stmt.buffers_written r.then_);
          List.iter write (Stmt.buffers_written r.else_);
          walk r.then_;
          walk r.else_
        | s ->
          List.iter (read (where_of s)) (reads_of s);
          List.iter write (Stmt.buffers_written [ s ]))
      block
  in
  walk k.Kernel.body;
  List.rev !findings

(* ---- check 2: barrier divergence --------------------------------------------- *)

let check_barriers (k : Kernel.t) =
  let tainted = Hashtbl.create 8 in
  let expr_tainted e = List.exists (Hashtbl.mem tainted) (Expr.free_vars e) in
  let findings = ref [] in
  let flagged = ref false in
  let rec walk ~in_thread ~divergent block =
    List.iter
      (fun s ->
        match s with
        | Stmt.Let { var; value } | Stmt.Assign { var; value } ->
          if in_thread && (expr_tainted value || Expr.buffers_read value <> [])
          then Hashtbl.replace tainted var ()
        | Stmt.For r ->
          let thread_loop =
            match r.kind with Stmt.Parallel ax -> Axis.is_thread ax | _ -> false
          in
          if thread_loop then Hashtbl.replace tainted r.var ();
          let div_bounds =
            in_thread && (expr_tainted r.lo || expr_tainted r.extent)
          in
          walk
            ~in_thread:(in_thread || thread_loop)
            ~divergent:((divergent && in_thread) || div_bounds)
            r.body
        | Stmt.If r ->
          let div = divergent || (in_thread && expr_tainted r.cond) in
          walk ~in_thread ~divergent:div r.then_;
          walk ~in_thread ~divergent:div r.else_
        | Stmt.Sync ->
          if in_thread && divergent && not !flagged then begin
            flagged := true;
            findings :=
              { check = Barrier_divergence;
                diag =
                  Diag.error `Parallelism "sync"
                    "barrier under thread-divergent control flow: threads disagree on \
                     reaching it, so the block deadlocks on real hardware"
                ;
                buffers = [];
                sites = []
              }
              :: !findings
          end
        | _ -> ())
      block
  in
  walk ~in_thread:false ~divergent:false k.Kernel.body;
  List.rev !findings

(* ---- check 1: data races ------------------------------------------------------ *)

(* rename every inner variable of the second iteration's expressions *)
let prime = Printf.sprintf "%s'"

let rename_inner inner e =
  List.fold_left (fun e (v, _) -> Expr.subst_var v (Expr.Var (prime v)) e) e inner

let window_disjoint ~c ~r_range ~w1 ~w2 =
  (* footprints start1 = c*t + b1, start2 = c*t' + b2 with t <> t'.
     overlap needs  -(w2-1) <= c*(t - t') + (b1 - b2) <= w1-1; with
     (b1 - b2) in [r.lo, r.hi] the closest approach is |c|.  *)
  let whi = w1 - 1 and wlo = 1 - w2 in
  abs c > max (whi - r_range.Footprint.lo) (r_range.Footprint.hi - wlo)

(* can two distinct iterations of a loop over [ax] see the same storage?
   Local/Fragment are per-thread, Nram/Wram per-core, Shared per-block *)
let shared_across ax (scope : Scope.t) =
  match scope with
  | Scope.Global | Scope.Host -> true
  | Scope.Shared -> Axis.is_thread ax
  | Scope.Local | Scope.Fragment | Scope.Nram | Scope.Wram -> false

let check_races ~table (k : Kernel.t) =
  let scope_of =
    let allocs = List.map (fun (b, sc, _, _) -> (b, sc)) (Stmt.allocs k.Kernel.body) in
    fun buf ->
      match List.assoc_opt buf allocs with
      | Some sc -> Some sc
      | None ->
        if List.exists
             (fun (p : Kernel.param) -> p.is_buffer && p.name = buf)
             k.Kernel.params
        then Some Scope.Global
        else None
  in
  let findings = ref [] in
  let flagged_pairs = Hashtbl.create 8 in
  (* per parallel loop: conflicts across its iterations *)
  let rec scan env block =
    List.iter
      (fun s ->
        match s with
        | Stmt.For r ->
          let ext_r = Footprint.range env r.extent in
          let var_range =
            match ext_r with
            | Some e when e.Footprint.hi >= 1 -> Some { Footprint.lo = 0; hi = e.Footprint.hi - 1 }
            | _ -> None
          in
          (match (r.kind, ext_r) with
          | Stmt.Parallel ax, Some e when e.Footprint.hi >= 2 ->
            analyze_loop env ax r.var e.Footprint.hi r.body
          | _ -> ());
          let env' =
            match var_range with Some b -> (r.var, b) :: env | None -> env
          in
          scan env' r.body
        | Stmt.If r ->
          scan env r.then_;
          scan env r.else_
        | _ -> ())
      block
  and analyze_loop env ax t extent body =
    let thread = Axis.is_thread ax in
    let private_bufs = List.map (fun (b, _, _, _) -> b) (Stmt.allocs body) in
    let t_range = { Footprint.lo = 0; hi = extent - 1 } in
    let accesses =
      collect ~count_phases:thread ~root_env:((t, t_range) :: env) body
      |> List.filter (fun a ->
             (not (List.mem a.buf private_bufs))
             && match scope_of a.buf with
                | Some sc -> shared_across ax sc
                | None -> false)
    in
    let pair a1 a2 =
      if a1.buf <> a2.buf then ()
      else if a1.kind = `R && a2.kind = `R then ()
      else if thread && a1.phase <> a2.phase then ()
      else begin
        (* iteration 2 gets its own copies of t and of every inner var *)
        let inner2 = (t, t_range) :: a2.inner in
        let start2 = rename_inner inner2 a2.start in
        let width2 = rename_inner inner2 a2.width in
        let guards2 = List.map (rename_inner inner2) a2.guards in
        let all_env =
          env
          @ [ (t, t_range); (prime t, t_range) ]
          @ a1.inner
          @ List.map (fun (v, b) -> (prime v, b)) inner2
        in
        let d =
          Linear.normalize (Expr.Binop (Expr.Sub, a1.start, start2))
        in
        let w1_r = Footprint.range all_env a1.width in
        let w2_r = Footprint.range all_env width2 in
        match (w1_r, w2_r) with
        | Some w1_r, Some w2_r when w1_r.Footprint.hi >= 1 && w2_r.Footprint.hi >= 1 -> (
          let w1 = w1_r.Footprint.hi and w2 = w2_r.Footprint.hi in
          let dd = Linear.decompose d in
          let c1 = Linear.coeff_of_var t dd in
          let c2 = -Linear.coeff_of_var (prime t) dd in
          let residual =
            Linear.recompose (Linear.drop_var t (Linear.drop_var (prime t) dd))
          in
          let proved_disjoint =
            (* equal-stride windows: stride beats the window span *)
            (c1 = c2 && c1 <> 0
            &&
            match Footprint.range all_env residual with
            | Some r_range -> window_disjoint ~c:c1 ~r_range ~w1 ~w2
            | None -> false)
            ||
            (* interval proof on the full difference *)
            match Footprint.range all_env d with
            | Some d_r -> d_r.Footprint.hi < 1 - w2 || d_r.Footprint.lo > w1 - 1
            | None -> false
          in
          if not proved_disjoint then begin
            (* hunt for a concrete colliding pair of iterations *)
            let overlap =
              [ Expr.Binop (Expr.Ne, Expr.Var t, Expr.Var (prime t));
                Expr.Binop
                  (Expr.Ge, d, Expr.Binop (Expr.Sub, Expr.Int 1, width2));
                Expr.Binop
                  (Expr.Le, d, Expr.Binop (Expr.Sub, a1.width, Expr.Int 1))
              ]
            in
            match feasible all_env (overlap @ a1.guards @ guards2) with
            | Some (Some model) ->
              let key = (a1.buf, a1.where, a2.where, a1.phase) in
              if not (Hashtbl.mem flagged_pairs key) then begin
                Hashtbl.replace flagged_pairs key ();
                let w_t = List.assoc_opt t model and w_t' = List.assoc_opt (prime t) model in
                let witness =
                  match (w_t, w_t') with
                  | Some a, Some b ->
                    Printf.sprintf " (e.g. %s=%d vs %s=%d)" t a t b
                  | _ -> ""
                in
                let sites =
                  List.filter_map
                    (fun stmt ->
                      match site_of table stmt with
                      | Some (Site.Index _) as i -> i
                      | _ -> None)
                    [ a1.stmt; a2.stmt ]
                in
                findings :=
                  { check = Race;
                    diag =
                      Diag.error `Parallelism a1.where
                        (Printf.sprintf
                           "data race on %s across %s: %s and %s touch the same element \
                            in the same barrier phase%s"
                           a1.buf (Axis.to_string ax) a1.where a2.where witness);
                    buffers = [ a1.buf ];
                    sites
                  }
                  :: !findings
              end
            | _ -> () (* undecided or disjoint under guards *)
          end)
        | _ -> () (* unbounded width: dynamic validation's job *)
      end
    in
    let rec pairs = function
      | [] -> ()
      | a :: rest ->
        List.iter
          (fun b ->
            if a.kind = `W || b.kind = `W then begin
              pair a b;
              (* the conflict predicate is not symmetric in guards/widths
                 only through renaming; one direction suffices because both
                 orders describe the same element overlap *)
              ()
            end)
          rest;
        pairs rest
    in
    pairs accesses
  in
  scan [] k.Kernel.body;
  List.rev !findings

(* ---- entry point -------------------------------------------------------------- *)

let analyze ?(extents = []) (k : Kernel.t) =
  let table = lazy (Site.walk k) in
  check_races ~table k @ check_barriers k @ check_oob ~extents ~table k @ check_uninit k
