open Xpiler_machine
module Pass = Xpiler_passes.Pass
module Listx = Xpiler_util.Listx

type variant = { specs : Pass.spec list; kernel : Xpiler_ir.Kernel.t; throughput : float }
type stats = { evaluated : int; pruned : int }

(* a candidate records its whole spec sequence but is built by applying only
   its [last] spec to [seed], the kernel the sequence's prefix already
   produced: passes are pure, so this equals folding [specs] from the input *)
type candidate = { specs : Pass.spec list; seed : Xpiler_ir.Kernel.t; last : Pass.spec option }

let candidates platform k =
  let one spec = { specs = [ spec ]; seed = k; last = Some spec } in
  let splits =
    List.concat_map
      (fun (var, extent) ->
        List.map
          (fun factor -> one (Pass.Loop_split { var; factor }))
          (Knobs.split_factors platform ~extent))
      (Knobs.splittable_loops k)
  in
  let reorders =
    List.map (fun var -> one (Pass.Loop_reorder { var })) (Knobs.reorderable_loops k)
  in
  let pipelines = List.map (fun var -> one (Pass.Pipeline { var })) (Knobs.pipelinable_loops k) in
  [ { specs = []; seed = k; last = None } ] @ splits @ reorders @ pipelines

(* Depth-2 compositions seeded from measured depth-1 survivors: each
   surviving split opens reorder/pipeline opportunities on its *transformed*
   kernel (the split loop pair is what becomes interchangeable or
   pipelineable), which single-spec enumeration can never see. *)
let composed_candidates (survivors : variant list) ~limit =
  survivors
  |> List.concat_map (fun (v : variant) ->
         match v.specs with
         | [ Pass.Loop_split _ ] ->
           let extend spec = { specs = v.specs @ [ spec ]; seed = v.kernel; last = Some spec } in
           let reorders =
             List.map
               (fun var -> extend (Pass.Loop_reorder { var }))
               (Knobs.reorderable_loops v.kernel)
           in
           let pipelines =
             List.map (fun var -> extend (Pass.Pipeline { var })) (Knobs.pipelinable_loops v.kernel)
           in
           reorders @ pipelines
         | _ -> [])
  |> Listx.take limit

(* ---- the tuning loop ---------------------------------------------------- *)

(* candidates measured per phase, and how many measured depth-1 split
   variants seed the composition phase *)
let max_candidates = 12
let compose_seeds = 4

let tune ?(prune = true) ~platform k =
  let compiles k = Result.is_ok (Checker.compile platform k) in
  let modelled_throughput k = Costmodel.throughput platform k ~shapes:[] in
  let apply c =
    match c.last with None -> Ok c.seed | Some spec -> Pass.apply ~platform spec c.seed
  in
  if not (compiles k) then
    (* a rejected input has no valid variant to offer: nothing is measured *)
    ({ specs = []; kernel = k; throughput = 0.0 }, { evaluated = 0; pruned = 0 })
  else
  let base = { specs = []; kernel = k; throughput = modelled_throughput k } in
  let best = ref base in
  let measured = ref [] (* successful variants, newest first *) in
  let evaluated = ref 0 and pruned = ref 0 in
  (* one measured candidate: the checker, and the cost model unless its
     [throughput] is already known; the empty candidate is the input,
     already checked and modelled as [base] *)
  let measure ?throughput specs applied =
    incr evaluated;
    match applied with
    | Ok _ when specs = [] -> measured := base :: !measured
    | Ok kernel when compiles kernel ->
      let throughput =
        match throughput with Some t -> t | None -> modelled_throughput kernel
      in
      let v = { specs; kernel; throughput } in
      measured := v :: !measured;
      if v.throughput > !best.throughput then best := v
    | _ -> ()
  in
  let phase =
    if prune then begin
      (* Branch-and-bound: apply every candidate and walk it once with the
         cost model, which gives an admissible throughput bound and the
         throughput itself (Costmodel.bound_and_throughput); sort by bound
         descending (stable, so ties keep enumeration order), then scan
         sequentially. Once a bound cannot beat the incumbent, no later
         bound can either — the whole suffix is pruned without the
         checker. *)
      let prep cands =
        List.filter_map
          (fun c ->
            match apply c with
            | Error _ -> None
            | Ok kernel ->
              let bound, throughput = Costmodel.bound_and_throughput platform kernel ~shapes:[] in
              Some (c.specs, kernel, bound, throughput))
          cands
        |> List.stable_sort (fun (_, _, a, _) (_, _, b, _) -> compare (b : float) a)
      in
      let rec scan = function
        | [] -> ()
        | (specs, kernel, bound, throughput) :: rest ->
          if bound <= !best.throughput then
            (* sorted descending: the entire suffix is also beaten *)
            pruned := !pruned + 1 + List.length rest
          else begin
            measure ~throughput specs (Ok kernel);
            scan rest
          end
      in
      fun cands -> scan (prep cands)
    end
    else
      (* exhaustive mode: every candidate is measured, in candidate order *)
      List.iter (fun c -> measure c.specs (apply c))
  in
  phase (Listx.take max_candidates (candidates platform k));
  let seeds = Listx.top_k ~k:compose_seeds ~score:(fun v -> v.throughput) (List.rev !measured) in
  phase (composed_candidates seeds ~limit:max_candidates);
  (!best, { evaluated = !evaluated; pruned = !pruned })
