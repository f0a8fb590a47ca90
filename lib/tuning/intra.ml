open Xpiler_machine
module Pass = Xpiler_passes.Pass
module Listx = Xpiler_util.Listx

type variant = { specs : Pass.spec list; kernel : Xpiler_ir.Kernel.t; throughput : float }
type stats = { evaluated : int }

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
     order, by the cost model alone; [left] is how many more candidates
     the current phase may try *)
  let left = ref max_candidates in
  (* the candidate [prefix @ [spec]], built by applying only [spec] to
     [seed], the kernel [prefix] already produced: passes are pure, so this
     equals folding the whole sequence from the input *)
  let try_spec prefix seed spec =
    decr left;
    match Pass.apply ~platform spec seed with
    | Ok kernel ->
      measure { specs = prefix @ [ spec ]; kernel; throughput = modelled_throughput kernel }
    | Error _ -> ()
  in
  (* [f x] for each [x] of [xs] in order, while the phase's cap lasts *)
  let rec walk f = function
    | x :: rest when !left > 0 ->
      f x;
      walk f rest
    | _ -> ()
  in
  (* the interchanges, then the pipelinings, of [seed]; a knob list the
     cap has reached is never made *)
  let reshapes prefix seed =
    if !left > 0 then
      walk
        (fun var -> try_spec prefix seed (Pass.Loop_reorder { var }))
        (Knobs.reorderable_loops seed);
    if !left > 0 then
      walk (fun var -> try_spec prefix seed (Pass.Pipeline { var })) (Knobs.pipelinable_loops seed)
  in
  (* depth 1: the input itself (already modelled as [base]), the split
     factors of every splittable loop, then the reshapes *)
  decr left;
  measure base;
  walk
    (fun (var, extent) ->
      walk
        (fun factor -> try_spec [] k (Pass.Loop_split { var; factor }))
        (Knobs.split_factors platform ~extent))
    (Knobs.splittable_loops k);
  reshapes [] k;
  (* depth 2, seeded from the best measured depth-1 variants: each split
     among them opens reorder/pipeline opportunities on its *transformed*
     kernel (the split loop pair is what becomes interchangeable or
     pipelineable), which single-spec enumeration can never see *)
  let seeds = Listx.top_k ~k:compose_seeds ~score:(fun v -> v.throughput) (List.rev !measured) in
  left := max_candidates;
  walk
    (fun v -> match v.specs with [ Pass.Loop_split _ ] -> reshapes v.specs v.kernel | _ -> ())
    seeds;
  (* split, reorder and pipeline only rebuild serial loops, so no candidate
     of an accepted input is rejected (test_tuning checks it); the winner
     is checked all the same, and a rejected one gives way to the input *)
  let winner = if !best == base || compiles !best.kernel then !best else base in
  (winner, { evaluated = !evaluated })
