open Xpiler_machine
module Pass = Xpiler_passes.Pass
module Vclock = Xpiler_util.Vclock
module Listx = Xpiler_util.Listx
module Trace = Xpiler_obs.Trace
module Metrics = Xpiler_obs.Metrics

(* Stable: one search owns its memo on one domain, so the hit/miss split is
   a function of the search trajectory alone. *)
let memo_metrics table =
  let lbl = [ ("table", table) ] in
  ( Metrics.counter ~help:"intra memo lookups by table and result"
      ~labels:(("result", "hit") :: lbl) "xpiler_intra_memo_lookups_total",
    Metrics.counter ~labels:(("result", "miss") :: lbl) "xpiler_intra_memo_lookups_total" )

let compile_metrics = memo_metrics "compile"
let throughput_metrics = memo_metrics "throughput"

type variant = { specs : Pass.spec list; kernel : Xpiler_ir.Kernel.t; throughput : float }
type stats = { evaluated : int; pruned : int }

let candidates platform k =
  let splits =
    List.concat_map
      (fun (var, extent) ->
        List.map
          (fun factor -> [ Pass.Loop_split { var; factor } ])
          (Knobs.split_factors platform ~extent))
      (Knobs.splittable_loops k)
  in
  let reorders = List.map (fun var -> [ Pass.Loop_reorder { var } ]) (Knobs.reorderable_loops k) in
  let pipelines = List.map (fun var -> [ Pass.Pipeline { var } ]) (Knobs.pipelinable_loops k) in
  [ [] ] @ splits @ reorders @ pipelines

(* Depth-2 compositions seeded from measured depth-1 survivors: each
   surviving split opens reorder/pipeline opportunities on its *transformed*
   kernel (the split loop pair is what becomes interchangeable or
   pipelineable), which single-spec enumeration can never see. *)
let composed_candidates survivors ~limit =
  survivors
  |> List.concat_map (fun v ->
         match v.specs with
         | [ Pass.Loop_split _ ] ->
           let reorders =
             List.map
               (fun var -> v.specs @ [ Pass.Loop_reorder { var } ])
               (Knobs.reorderable_loops v.kernel)
           in
           let pipelines =
             List.map
               (fun var -> v.specs @ [ Pass.Pipeline { var } ])
               (Knobs.pipelinable_loops v.kernel)
           in
           reorders @ pipelines
         | _ -> [])
  |> Listx.take limit

(* ---- checker/cost-model memo ------------------------------------------- *)

(* The tuner revisits the same (platform, kernel) states constantly: MCTS
   rollouts rediscover states the tree already expanded, and intra candidates
   collide across rewards. Both functions are pure, so memoizing them is
   invisible except in time. Every hit falls within one search, so the memo
   lives as long as the search that owns it: bounded by that search's
   budget, with no eviction. *)
module PTbl = Hashtbl.Make (struct
  type t = Platform.id * Xpiler_ir.Kernel.t

  let equal (aid, ak) (bid, bk) = aid = bid && Xpiler_ir.Kernel.equal ak bk
  let hash (id, k) = Xpiler_ir.Expr.hash_comb (Hashtbl.hash id) (Xpiler_ir.Kernel.hash k)
end)

type memo = { compiled : bool PTbl.t; modelled : float PTbl.t }

let create_memo () = { compiled = PTbl.create 256; modelled = PTbl.create 256 }

let memoized tbl (m_hit, m_miss) compute key =
  match PTbl.find_opt tbl key with
  | Some v ->
    Metrics.inc m_hit;
    v
  | None ->
    Metrics.inc m_miss;
    let v = compute () in
    PTbl.replace tbl key v;
    v

let compiles memo platform k =
  memoized memo.compiled compile_metrics
    (fun () -> Result.is_ok (Checker.compile platform k))
    (platform.Platform.id, k)

let modelled_throughput memo platform k =
  memoized memo.modelled throughput_metrics
    (fun () -> Costmodel.throughput platform k ~shapes:[])
    (platform.Platform.id, k)

(* ---- the tuning loop ---------------------------------------------------- *)

(* how many measured depth-1 split variants seed the composition phase *)
let compose_seeds = 4

let tune_with_stats ?clock ?charge ?(max_candidates = 64) ?(prune = true)
    ?(compose = true) ~memo ~platform k =
  let charge_fn =
    match charge with
    | Some f -> f
    | None -> (
      match clock with
      | Some c -> fun s -> Vclock.charge c Vclock.Auto_tuning s
      | None -> fun _ -> ())
  in
  let compiles = compiles memo and modelled_throughput = modelled_throughput memo in
  let apply specs =
    List.fold_left (fun acc spec -> Result.bind acc (Pass.apply ~platform spec)) (Ok k) specs
  in
  let base = { specs = []; kernel = k; throughput = modelled_throughput platform k } in
  let best = ref base in
  let measured = ref [] (* successful variants, newest first *) in
  let evaluated = ref 0 and pruned = ref 0 in
  (* One measured candidate: a count and a charge, then the checker and the
     full cost model, untraced. That count + charge per measured variant
     (then, when pruning, one aggregated [intra.pruned] count) is the
     canonical effect stream transposition receipts replay, keeping hits and
     misses observably identical. *)
  let measure specs applied =
    incr evaluated;
    Trace.count "intra.variants";
    charge_fn 10.0 (* one variant measured on the device *);
    Trace.without (fun () ->
        match applied with
        | Ok kernel when compiles platform kernel ->
          let v = { specs; kernel; throughput = modelled_throughput platform kernel } in
          measured := v :: !measured;
          if v.throughput > !best.throughput then best := v
        | _ -> ())
  in
  let phase =
    if prune then begin
      (* Branch-and-bound: apply every candidate and compute a cheap
         admissible throughput bound (Costmodel.throughput_bound), sort by
         bound descending (stable, so ties keep enumeration order), then
         scan sequentially. Once a bound cannot beat the incumbent, no later
         bound can either — the whole suffix is pruned without the expensive
         checker + full cost-model walk. *)
      let prep specs_list =
        Trace.without (fun () ->
            List.filter_map
              (fun specs ->
                match apply specs with
                | Error _ -> None
                | Ok kernel ->
                  Some (specs, kernel, Costmodel.throughput_bound platform kernel ~shapes:[]))
              specs_list
            |> List.stable_sort (fun (_, _, a) (_, _, b) -> compare (b : float) a))
      in
      let rec scan = function
        | [] -> ()
        | (specs, kernel, bound) :: rest ->
          if bound <= !best.throughput then
            (* sorted descending: the entire suffix is also beaten *)
            pruned := !pruned + 1 + List.length rest
          else begin
            measure specs (Ok kernel);
            scan rest
          end
      in
      fun specs_list -> scan (prep specs_list)
    end
    else
      (* exhaustive mode: every candidate is measured, in candidate order *)
      List.iter (fun specs -> measure specs (Trace.without (fun () -> apply specs)))
  in
  phase (Listx.take max_candidates (candidates platform k));
  if compose then begin
    let seeds =
      Listx.top_k ~k:compose_seeds ~score:(fun v -> v.throughput) (List.rev !measured)
    in
    phase (composed_candidates seeds ~limit:max_candidates)
  end;
  if !pruned > 0 then Trace.count ~n:!pruned "intra.pruned";
  (!best, { evaluated = !evaluated; pruned = !pruned })

let tune ?clock ?charge ?max_candidates ?prune ?compose ~platform k =
  fst
    (tune_with_stats ?clock ?charge ?max_candidates ?prune ?compose
       ~memo:(create_memo ()) ~platform k)
