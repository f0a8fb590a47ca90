open Xpiler_ir
open Xpiler_machine
module Pass = Xpiler_passes.Pass
module Memory_pass = Xpiler_passes.Memory_pass

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

(* what the action space reads of a kernel, gathered in one pre-order walk
   (an [If]'s branches after its condition); the lists are newest first *)
type facts = {
  buffer_sizes : (string * int) list;
  mutable splittable : (string * int) list;  (** the first two serial loops of constant extent > 1 *)
  mutable bindable : string list;
      (** the first two zero-based serial loops of constant extent, outside
          every [If], whose iterations are independent *)
  mutable reorderable : string option;  (** the first serial perfect 2-nest *)
  mutable expandable : string option;  (** the first serial loop of >= 2 statements *)
  mutable contractible : string option;
      (** the first loop, outside every [If], followed by a loop of the same
          variable and extent *)
  mutable pipelinable : string option;  (** the first serial loop that copies and computes *)
  mutable allocs : string list;
  mutable intrinsic : bool;
  mutable parallel : bool;
  read : bool array;  (** per [buffer_sizes] entry, as [Stmt.buffers_read] sees it *)
  written : bool array;
  matrix_operand : bool array;  (** a second or later operand of a matrix intrinsic *)
}

(* only zero-based loops with independent iterations are bindable: a loop
   carrying a scalar accumulator declared outside it, or storing at indices
   that do not vary with it, would race on real hardware. [declared] holds
   the [Let]s met so far in [Stmt.iter]'s order. *)
let rec independent r_var declared = function
  | [] -> Some declared
  | s :: rest -> (
    let inner =
      match s with
      | Stmt.Let { var; _ } -> Some (var :: declared)
      | Stmt.Assign { var; _ } when not (List.mem var declared) -> None
      | Stmt.Store { index; _ } when not (Expr.contains_var r_var index) -> None
      | Stmt.Memcpy { dst; _ } when not (Expr.contains_var r_var dst.offset) -> None
      | Stmt.Intrinsic i when not (Expr.contains_var r_var i.dst.offset) -> None
      | Stmt.For r -> independent r_var declared r.body
      | Stmt.If r -> (
        match independent r_var declared r.then_ with
        | Some declared -> independent r_var declared r.else_
        | None -> None)
      | _ -> Some declared
    in
    match inner with Some declared -> independent r_var declared rest | None -> None)

(* set [flags.(i)] for every [buffer_sizes] entry [i] named [buf] *)
let rec mark flags buf i = function
  | [] -> ()
  | (b, _) :: rest ->
    if String.equal b buf then flags.(i) <- true;
    mark flags buf (i + 1) rest

let rec mark_loads f (e : Expr.t) =
  match e with
  | Int _ | Float _ | Var _ -> ()
  | Load (b, i) ->
    mark f.read b 0 f.buffer_sizes;
    mark_loads f i
  | Binop (_, l, r) ->
    mark_loads f l;
    mark_loads f r
  | Unop (_, x) | Cast (_, x) -> mark_loads f x
  | Select (c, t, e) ->
    mark_loads f c;
    mark_loads f t;
    mark_loads f e

let rec mark_sources f = function
  | [] -> ()
  | (r : Intrin.buf_ref) :: rest ->
    mark f.read r.buf 0 f.buffer_sizes;
    mark_sources f rest

let rec mark_operands f = function
  | [] -> ()
  | (r : Intrin.buf_ref) :: rest ->
    mark f.matrix_operand r.buf 0 f.buffer_sizes;
    mark_operands f rest

let is_copy = function Stmt.Memcpy _ -> true | _ -> false
let is_compute = function Stmt.Memcpy _ | Stmt.Annot _ -> false | _ -> true

let rec walk f ~under_if = function
  | [] -> ()
  | s :: rest ->
    visit f ~under_if s rest;
    walk f ~under_if rest

and visit f ~under_if s rest =
  let sizes = f.buffer_sizes <> [] in
  match s with
  | Stmt.For r ->
    let serial = r.kind = Stmt.Serial in
    (match r.extent with
    | Expr.Int e when serial && e > 1 && List.compare_length_with f.splittable 2 < 0 ->
      f.splittable <- (r.var, e) :: f.splittable
    | _ -> ());
    (match (r.lo, r.extent) with
    | Expr.Int 0, Expr.Int _
      when serial && (not under_if)
           && List.compare_length_with f.bindable 2 < 0
           && Option.is_some (independent r.var [] r.body) ->
      f.bindable <- r.var :: f.bindable
    | _ -> ());
    (match r.body with
    | [ Stmt.For inner ]
      when serial && f.reorderable = None && inner.kind = Stmt.Serial
           && (not (Expr.contains_var r.var inner.lo))
           && not (Expr.contains_var r.var inner.extent) ->
      f.reorderable <- Some r.var
    | _ -> ());
    if serial && f.expandable = None && List.compare_length_with r.body 2 >= 0 then
      f.expandable <- Some r.var;
    (match rest with
    | Stmt.For r2 :: _
      when (not under_if) && f.contractible = None && String.equal r.var r2.var
           && Expr.equal r.extent r2.extent ->
      f.contractible <- Some r.var
    | _ -> ());
    if
      serial && f.pipelinable = None && List.exists is_copy r.body
      && List.exists is_compute r.body
    then f.pipelinable <- Some r.var;
    (match r.kind with Stmt.Parallel _ -> f.parallel <- true | _ -> ());
    if sizes then begin
      mark_loads f r.lo;
      mark_loads f r.extent
    end;
    walk f ~under_if r.body
  | Stmt.If r ->
    if sizes then mark_loads f r.cond;
    walk f ~under_if:true r.then_;
    walk f ~under_if:true r.else_
  | Stmt.Let { value; _ } | Stmt.Assign { value; _ } -> if sizes then mark_loads f value
  | Stmt.Store r ->
    if sizes then begin
      mark f.written r.buf 0 f.buffer_sizes;
      mark_loads f r.value;
      mark_loads f r.index
    end
  | Stmt.Alloc r -> f.allocs <- r.buf :: f.allocs
  | Stmt.Memcpy r ->
    if sizes then begin
      mark f.written r.dst.buf 0 f.buffer_sizes;
      mark f.read r.src.buf 0 f.buffer_sizes
    end
  | Stmt.Intrinsic i ->
    f.intrinsic <- true;
    if sizes then begin
      mark f.written i.dst.buf 0 f.buffer_sizes;
      mark_sources f i.srcs;
      if Intrin.is_matrix i.op then
        mark_operands f (match i.srcs with _ :: rest -> rest | [] -> [])
    end
  | Stmt.Sync | Stmt.Annot _ -> ()

let facts ~buffer_sizes (k : Kernel.t) =
  let n = List.length buffer_sizes in
  let f =
    { buffer_sizes; splittable = []; bindable = []; reorderable = None; expandable = None;
      contractible = None; pipelinable = None; allocs = []; intrinsic = false;
      parallel = false; read = Array.make n false; written = Array.make n false;
      matrix_operand = Array.make n false
    }
  in
  walk f ~under_if:false k.Kernel.body;
  f

(* the action list under construction: the first [max_actions] specs
   offered, newest first *)
type actions = { mutable specs : Pass.spec list; mutable count : int }

let offer acts spec =
  if acts.count < max_actions then begin
    acts.specs <- spec :: acts.specs;
    acts.count <- acts.count + 1
  end

let offer_option acts make = function Some var -> offer acts (make var) | None -> ()

let enumerate ?(buffer_sizes = []) (platform : Platform.t) (k : Kernel.t) =
  let f = facts ~buffer_sizes k in
  let acts = { specs = []; count = 0 } in
  if platform.Platform.intrinsics <> [] then offer acts Pass.Tensorize;
  (* staging: every parameter the kernel writes (Readwrite is the sound
     generic choice: Write-only would clobber cells the kernel never
     writes), else every one it reads, unless a cache already exists *)
  let scope = Platform.default_compute_scope platform.Platform.id in
  let staged buf s = List.mem (buf ^ "_" ^ Scope.to_string s) f.allocs in
  List.iteri
    (fun i (buf, size) ->
      if staged buf scope || staged buf Scope.Wram then ()
      else if f.written.(i) then
        offer acts
          (Pass.Cache
             { buf; scope; direction = Memory_pass.Readwrite; under = None; base = Expr.Int 0;
               size })
      else if f.read.(i) then begin
        let scope =
          (* second read operand of a matmul prefers WRAM on the MLU *)
          if Platform.equal_id platform.Platform.id Platform.Bang && f.matrix_operand.(i) then
            Scope.Wram
          else scope
        in
        offer acts
          (Pass.Cache
             { buf; scope; direction = Memory_pass.Read; under = None; base = Expr.Int 0; size })
      end)
    buffer_sizes;
  if f.bindable <> [] then begin
    let axes = Knobs.bindable_axes platform k in
    let block_axis = List.find_opt is_block_axis axes in
    let thread_axis = List.find_opt (fun a -> not (is_block_axis a)) axes in
    List.iter
      (fun var ->
        offer_option acts (fun axis -> Pass.Loop_bind { var; axis }) block_axis;
        offer_option acts (fun axis -> Pass.Loop_bind { var; axis }) thread_axis)
      (List.rev f.bindable)
  end;
  List.iter
    (fun (var, extent) ->
      if acts.count < max_actions then
        List.iter
          (fun factor -> offer acts (Pass.Loop_split { var; factor }))
          (pick_factors (Knobs.split_factors platform ~extent)))
    (List.rev f.splittable);
  offer_option acts (fun var -> Pass.Pipeline { var }) f.pipelinable;
  offer_option acts (fun var -> Pass.Loop_reorder { var }) f.reorderable;
  (* loops with several statements are fission candidates; the pass itself
     rejects unsound distributions *)
  offer_option acts (fun var -> Pass.Loop_expansion { var }) f.expandable;
  offer_option acts (fun var -> Pass.Loop_contraction { var }) f.contractible;
  if f.intrinsic then offer acts Pass.Detensorize;
  if f.parallel then offer acts Pass.Loop_recovery;
  List.rev acts.specs
