open Xpiler_machine
module Pass = Xpiler_passes.Pass
module Listx = Xpiler_util.Listx

type variant = { specs : Pass.spec list; kernel : Xpiler_ir.Kernel.t; throughput : float }
type stats = { evaluated : int }

(* a candidate records its whole spec sequence but is built by applying only
   its [last] spec to [seed], the kernel the sequence's prefix already
   produced: passes are pure, so this equals folding [specs] from the input *)
type candidate = { specs : Pass.spec list; seed : Xpiler_ir.Kernel.t; last : Pass.spec option }

(* [f ()]'s elements, with [f] run only when the first one is asked for:
   the candidate lists are walked only as far as the cap reaches *)
let deferred (f : unit -> 'a Seq.t) : 'a Seq.t = fun () -> f () ()

let candidates platform k =
  let one spec = { specs = [ spec ]; seed = k; last = Some spec } in
  let splits =
    deferred (fun () ->
        Seq.concat_map
          (fun (var, extent) ->
            deferred (fun () ->
                Seq.map
                  (fun factor -> one (Pass.Loop_split { var; factor }))
                  (List.to_seq (Knobs.split_factors platform ~extent))))
          (List.to_seq (Knobs.splittable_loops k)))
  in
  let reorders =
    deferred (fun () ->
        Seq.map (fun var -> one (Pass.Loop_reorder { var })) (List.to_seq (Knobs.reorderable_loops k)))
  in
  let pipelines =
    deferred (fun () ->
        Seq.map (fun var -> one (Pass.Pipeline { var })) (List.to_seq (Knobs.pipelinable_loops k)))
  in
  Seq.cons { specs = []; seed = k; last = None } (Seq.append splits (Seq.append reorders pipelines))

(* Depth-2 compositions seeded from the best measured depth-1 variants: each
   split among them opens reorder/pipeline opportunities on its *transformed*
   kernel (the split loop pair is what becomes interchangeable or
   pipelineable), which single-spec enumeration can never see. *)
let composed_candidates (seeds : variant list) =
  Seq.concat_map
    (fun (v : variant) ->
      match v.specs with
      | [ Pass.Loop_split _ ] ->
        let extend spec = { specs = v.specs @ [ spec ]; seed = v.kernel; last = Some spec } in
        Seq.append
          (deferred (fun () ->
               Seq.map
                 (fun var -> extend (Pass.Loop_reorder { var }))
                 (List.to_seq (Knobs.reorderable_loops v.kernel))))
          (deferred (fun () ->
               Seq.map
                 (fun var -> extend (Pass.Pipeline { var }))
                 (List.to_seq (Knobs.pipelinable_loops v.kernel))))
      | _ -> Seq.empty)
    (List.to_seq seeds)

(* ---- the tuning loop ---------------------------------------------------- *)

(* candidates measured per phase, and how many measured depth-1 split
   variants seed the composition phase *)
let max_candidates = 12
let compose_seeds = 4

let tune ~platform k =
  let compiles k = Result.is_ok (Checker.compile platform k) in
  let modelled_throughput k = Costmodel.throughput platform k ~shapes:[] in
  if not (compiles k) then
    (* a rejected input has no valid variant to offer: nothing is measured *)
    ({ specs = []; kernel = k; throughput = 0.0 }, { evaluated = 0 })
  else
  let base = { specs = []; kernel = k; throughput = modelled_throughput k } in
  let best = ref base in
  let measured = ref [] (* variants, newest first *) in
  let evaluated = ref 0 in
  let measure v =
    incr evaluated;
    measured := v :: !measured;
    if v.throughput > !best.throughput then best := v
  in
  (* brute force: every candidate that applies is measured, in candidate
     order, by the cost model alone; the empty candidate is the input,
     already modelled as [base] *)
  let phase cands =
    Seq.iter
      (fun c ->
        match c.last with
        | None -> measure base
        | Some spec -> (
          match Pass.apply ~platform spec c.seed with
          | Ok kernel -> measure { specs = c.specs; kernel; throughput = modelled_throughput kernel }
          | Error _ -> ()))
      (Seq.take max_candidates cands)
  in
  phase (candidates platform k);
  let seeds = Listx.top_k ~k:compose_seeds ~score:(fun v -> v.throughput) (List.rev !measured) in
  phase (composed_candidates seeds);
  (* split, reorder and pipeline only rebuild serial loops, so no candidate
     of an accepted input is rejected (test_tuning checks it); the winner
     is checked all the same, and a rejected one gives way to the input *)
  let winner = if !best == base || compiles !best.kernel then !best else base in
  (winner, { evaluated = !evaluated })
