open Xpiler_machine
module Pass = Xpiler_passes.Pass
module Vclock = Xpiler_util.Vclock
module Pool = Xpiler_util.Pool
module Listx = Xpiler_util.Listx
module Trace = Xpiler_obs.Trace
module Metrics = Xpiler_obs.Metrics

(* Unstable: memo lookups race between pool worker domains, so hit/miss
   splits are schedule-dependent (values never are). *)
let memo_metrics table =
  let lbl = [ ("table", table) ] in
  ( Metrics.counter ~stable:false ~help:"intra memo lookups by table and result"
      ~labels:(("result", "hit") :: lbl) "xpiler_intra_memo_lookups_total",
    Metrics.counter ~stable:false ~labels:(("result", "miss") :: lbl)
      "xpiler_intra_memo_lookups_total",
    Metrics.counter ~stable:false ~help:"intra memo entries dropped by capacity eviction"
      ~labels:lbl ~trace:"intra.memo_evictions" "xpiler_intra_memo_evictions_total" )

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
   invisible except in time — which also makes the tables safe to share
   between pool workers (values are equal no matter who computes them). *)
module PK = struct
  type t = Platform.id * Xpiler_ir.Kernel.t

  let equal (aid, ak) (bid, bk) = aid = bid && Xpiler_ir.Kernel.equal ak bk
  let hash (id, k) = Xpiler_ir.Expr.hash_comb (Hashtbl.hash id) (Xpiler_ir.Kernel.hash k)
end

module PTbl = Hashtbl.Make (PK)

(* generous: a full MCTS search touches a few thousand states, and losing
   entries mid-search turns subsequent lookups into recomputes. Mutable so
   tests can force the eviction path. *)
let memo_limit = ref 65536
let set_memo_limit n = if n > 0 then memo_limit := n
let memo_mutex = Mutex.create ()
let compile_memo : bool PTbl.t = PTbl.create 256
let throughput_memo : float PTbl.t = PTbl.create 256

(* At capacity, evict half (arbitrary members — the memo records no
   recency) instead of resetting: a reset silently dropped the whole table
   mid-search, turning every later lookup into a recompute. Evictions are
   traced so capacity pressure is visible in journals. *)
let evict_half_locked tbl =
  let keys = PTbl.fold (fun key _ acc -> key :: acc) tbl [] in
  let dropped = ref 0 in
  List.iteri
    (fun i key ->
      if i land 1 = 0 then begin
        PTbl.remove tbl key;
        incr dropped
      end)
    keys;
  !dropped

(* compute runs outside the lock: a concurrent duplicate costs time, never
   correctness *)
let memoized tbl (m_hit, m_miss, m_evict) compute key =
  match Mutex.protect memo_mutex (fun () -> PTbl.find_opt tbl key) with
  | Some v ->
    Metrics.inc m_hit;
    v
  | None ->
    Metrics.inc m_miss;
    let v = compute () in
    let dropped =
      Mutex.protect memo_mutex (fun () ->
          let dropped = if PTbl.length tbl >= !memo_limit then evict_half_locked tbl else 0 in
          PTbl.replace tbl key v;
          dropped)
    in
    if dropped > 0 then Metrics.inc ~n:dropped m_evict;
    v

let compiles platform k =
  memoized compile_memo compile_metrics
    (fun () -> Result.is_ok (Checker.compile platform k))
    (platform.Platform.id, k)

let modelled_throughput platform k =
  memoized throughput_memo throughput_metrics
    (fun () -> Costmodel.throughput platform k ~shapes:[])
    (platform.Platform.id, k)

(* ---- the tuning loop ---------------------------------------------------- *)

(* how many measured depth-1 split variants seed the composition phase *)
let compose_seeds = 4

let tune_with_stats ?clock ?charge ?(jobs = 1) ?(max_candidates = 64) ?(prune = true)
    ?(compose = true) ~platform k =
  let charge_fn =
    match charge with
    | Some f -> f
    | None -> (
      match clock with
      | Some c -> fun s -> Vclock.charge c Vclock.Auto_tuning s
      | None -> fun _ -> ())
  in
  let base = { specs = []; kernel = k; throughput = modelled_throughput platform k } in
  let best = ref base in
  let measured = ref [] (* successful variants, newest first *) in
  let evaluated = ref 0 and pruned = ref 0 in
  if prune then begin
    (* Branch-and-bound: apply every candidate and compute a cheap
       admissible throughput bound (Costmodel.throughput_bound), sort by
       bound descending (stable, so ties keep enumeration order), then scan
       sequentially. Once a bound cannot beat the incumbent, no later bound
       can either — the whole suffix is pruned without the expensive
       checker + full cost-model walk. The scan is sequential by nature
       (the incumbent is the pruning threshold), so [jobs] is ignored here;
       MCTS-level parallelism (root batches) is unaffected.

       All computation runs under [Trace.without]; only the canonical
       effect stream — per measured variant a count + charge, then one
       aggregated [intra.pruned] count — is emitted. That exact stream is
       what transposition receipts replay, keeping hits and misses
       observably identical. *)
    let prep specs_list =
      Trace.without (fun () ->
          List.filter_map
            (fun specs ->
              let applied =
                List.fold_left
                  (fun acc spec -> Result.bind acc (Pass.apply ~platform spec))
                  (Ok k) specs
              in
              match applied with
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
          incr evaluated;
          Trace.count "intra.variants";
          charge_fn 10.0 (* one variant measured on the device *);
          Trace.without (fun () ->
              if compiles platform kernel then begin
                let throughput = modelled_throughput platform kernel in
                let v = { specs; kernel; throughput } in
                measured := v :: !measured;
                if throughput > !best.throughput then best := v
              end);
          scan rest
        end
    in
    scan (prep (Listx.take max_candidates (candidates platform k)));
    if compose then begin
      let seeds =
        Listx.top_k ~k:compose_seeds ~score:(fun v -> v.throughput) (List.rev !measured)
      in
      scan (prep (composed_candidates seeds ~limit:max_candidates))
    end;
    if !pruned > 0 then Trace.count ~n:!pruned "intra.pruned"
  end
  else begin
    (* exhaustive mode: every candidate goes through the pool (inline when
       jobs=1); trace counts and clock charges are deferred and replayed in
       candidate order, so the observable stream is independent of the job
       count *)
    let pool_eval specs_list =
      evaluated := !evaluated + List.length specs_list;
      Pool.map ~jobs
        (fun task specs ->
          Trace.without (fun () ->
              Pool.defer task (fun () ->
                  Trace.count "intra.variants";
                  charge_fn 10.0 (* one variant measured on the device *));
              let applied =
                List.fold_left
                  (fun acc spec -> Result.bind acc (Pass.apply ~platform spec))
                  (Ok k) specs
              in
              match applied with
              | Error _ -> None
              | Ok kernel ->
                if compiles platform kernel then
                  Some { specs; kernel; throughput = modelled_throughput platform kernel }
                else None))
        specs_list
      |> List.iter (function
           | Some v ->
             measured := v :: !measured;
             if v.throughput > !best.throughput then best := v
           | None -> ())
    in
    pool_eval (Listx.take max_candidates (candidates platform k));
    if compose then begin
      let seeds =
        Listx.top_k ~k:compose_seeds ~score:(fun v -> v.throughput) (List.rev !measured)
      in
      match composed_candidates seeds ~limit:max_candidates with
      | [] -> ()
      | composed -> pool_eval composed
    end
  end;
  (!best, { evaluated = !evaluated; pruned = !pruned })

let tune ?clock ?charge ?jobs ?max_candidates ?prune ?compose ~platform k =
  fst (tune_with_stats ?clock ?charge ?jobs ?max_candidates ?prune ?compose ~platform k)
