open Xpiler_ir
open Xpiler_machine
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
