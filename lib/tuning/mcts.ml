open Xpiler_ir
module Pass = Xpiler_passes.Pass
module Rng = Xpiler_util.Rng
module Vclock = Xpiler_util.Vclock
module Trace = Xpiler_obs.Trace

type config = {
  max_depth : int;
  simulations : int;
  exploration : float;
  seed : int;
  intra_candidates : int;
  root_parallel : int;
  prune : bool;
  compose : bool;
}

let default_config =
  { max_depth = 13; simulations = 512; exploration = 1.2; seed = 7;
    intra_candidates = 12; root_parallel = 1; prune = true; compose = true }

type result = {
  best_kernel : Kernel.t;
  best_specs : Pass.spec list;
  best_reward : float;
  root_reward : float;
  nodes_expanded : int;
  simulations_run : int;
}

(* [rspecs] is the spec path from the root in reverse: children prepend, so
   extension is O(1) instead of the quadratic [specs @ [spec]]. [untried] is
   an array with live prefix [untried_n]; selection swap-removes in O(1). *)
type node = {
  kernel : Kernel.t;
  rspecs : Pass.spec list;
  depth : int;
  untried : Pass.spec array;
  mutable untried_n : int;
  mutable children : node list;
  mutable visits : int;
  mutable total : float;
}

module KTbl = Hashtbl.Make (struct
  type t = Kernel.t

  let equal = Kernel.equal
  let hash = Kernel.hash
end)

(* One independent search: own rng, own first-touch table, modelled device
   time charged through [charge], events emitted as they happen.

   Reward lookup is two-level. The per-search [seen] table (L1) keeps the
   trajectory's own repeats free, exactly like the old private reward
   cache. On an L1 miss the shared {!Transposition} table (L2) may already
   hold the state — computed by another batch, another search, or an
   earlier translation. Values are pure, so L2 only changes wall-clock
   time; observable effects stay deterministic because both the L2-hit and
   the fresh-evaluation paths emit the *same* canonical stream, replayed
   from the entry's receipt: nothing for invalid states, else one 5.0
   charge, then a count + 10.0 charge per measured intra variant, then one
   aggregated [intra.pruned] count. A fresh evaluation is one {!Intra.tune}
   call, which checks the state itself (a rejected state tunes to 0 with an
   empty receipt). {!Intra} emits and charges nothing, and the call runs
   under [Trace.without] so the cost model's own events stay out of that
   stream — whoever fills the table first is unobservable. *)
let search_one ~config ~sims ~seed ~charge ~share ~prefix ~buffer_sizes ~platform kernel =
  let rng = Rng.create seed in
  let nodes = ref 0 in
  let best = ref (kernel, [], 0.0) in
  (* L1: reward by state for this search's own repeats *)
  let seen : float KTbl.t = KTbl.create 128 in
  let platform_id = platform.Xpiler_machine.Platform.id in
  let tt_find k =
    if share then
      Transposition.find ~platform:platform_id ~budget:config.intra_candidates
        ~prune:config.prune ~compose:config.compose k
    else None
  in
  let tt_store k e =
    if share then
      Transposition.store ~platform:platform_id ~budget:config.intra_candidates
        ~prune:config.prune ~compose:config.compose k e
  in
  (* reward = best intra-tuned throughput of the state; 0 for invalid states *)
  let reward (k : Kernel.t) rspecs =
    let r =
      match KTbl.find_opt seen k with
      | Some r -> r
      | None ->
        let entry =
          match tt_find k with
          | Some e -> e
          | None ->
            Transposition.count_eval ();
            let v, st =
              Trace.without (fun () ->
                  Intra.tune ~prune:config.prune ~compose:config.compose
                    ~max_candidates:config.intra_candidates ~platform k)
            in
            let e =
              { Transposition.reward = v.Intra.throughput;
                evaluated = st.Intra.evaluated;
                pruned = st.Intra.pruned
              }
            in
            tt_store k e;
            e
        in
        (* canonical receipt replay — identical for hits and fresh runs *)
        if entry.Transposition.reward > 0.0 then begin
          charge 5.0 (* state set-up on the device *);
          for _ = 1 to entry.Transposition.evaluated do
            Trace.count "intra.variants";
            charge 10.0 (* one variant measured on the device *)
          done;
          if entry.Transposition.pruned > 0 then
            Trace.count ~n:entry.Transposition.pruned "intra.pruned"
        end;
        KTbl.replace seen k entry.Transposition.reward;
        entry.Transposition.reward
    in
    Trace.observe "mcts.reward" r;
    let _, _, b = !best in
    if r > b then begin
      best := (k, rspecs, r);
      (* best-so-far trajectory: one sample per improvement *)
      Trace.observe "mcts.best_reward" r
    end;
    r
  in
  let actions k = Actions.enumerate ~buffer_sizes platform k in
  let mk_node kernel rspecs depth =
    incr nodes;
    Trace.count "mcts.expansions";
    let untried =
      if depth >= config.max_depth then [||] else Array.of_list (actions kernel)
    in
    { kernel; rspecs; depth; untried; untried_n = Array.length untried;
      children = []; visits = 0; total = 0.0
    }
  in
  let root = mk_node kernel [] 0 in
  let root_reward = reward kernel [] in
  let uct parent_visits n =
    let mean = if n.visits = 0 then 0.0 else n.total /. float_of_int n.visits in
    mean
    +. config.exploration
       *. sqrt (log (float_of_int (max parent_visits 1)) /. float_of_int (max n.visits 1))
  in
  let apply k spec = Pass.apply ~platform spec k in
  (* Warm start: replay a recorded spec prefix (from Schedule_db) as a
     guaranteed-expanded first trajectory before UCT simulation. Each step
     removes the spec from the node's untried set *by identity* (no rng
     drawn, so the simulation stream is untouched), expands the child and
     evaluates its reward; the best reward along the replayed chain
     backpropagates once, like a single simulation. Replay stops early when
     the prefix diverges — the spec is not in the action space or fails to
     apply (recorded schedules come from *similar* kernels, not equal
     ones). *)
  let replay_prefix () =
    let rec go node k = function
      | [] -> []
      | spec :: rest when node.depth < config.max_depth -> (
        let idx = ref (-1) in
        for i = 0 to node.untried_n - 1 do
          if !idx < 0 && node.untried.(i) = spec then idx := i
        done;
        if !idx < 0 then []
        else
          match apply k spec with
          | Error _ -> []
          | Ok k' ->
            node.untried.(!idx) <- node.untried.(node.untried_n - 1);
            node.untried_n <- node.untried_n - 1;
            Trace.count "mcts.warm_steps";
            let child = mk_node k' (spec :: node.rspecs) (node.depth + 1) in
            node.children <- child :: node.children;
            let r = reward k' child.rspecs in
            (child, r) :: go child k' rest)
      | _ -> []
    in
    match go root kernel prefix with
    | [] -> ()
    | chain ->
      let br = List.fold_left (fun acc (_, r) -> Float.max acc r) root_reward chain in
      List.iter
        (fun (n, _) ->
          n.visits <- n.visits + 1;
          n.total <- n.total +. br)
        chain;
      root.visits <- root.visits + 1;
      root.total <- root.total +. br
  in
  replay_prefix ();
  (* random rollout from a state, returning the best reward encountered *)
  let rec rollout k rspecs depth best_r =
    if depth >= config.max_depth then best_r
    else begin
      Trace.count "mcts.rollout_steps";
      match actions k with
      | [] -> best_r
      | acts -> (
        let spec = Rng.choose rng acts in
        match apply k spec with
        | Error _ -> best_r
        | Ok k' ->
          let rspecs' = spec :: rspecs in
          let r = reward k' rspecs' in
          rollout k' rspecs' (depth + 1) (Float.max best_r r))
    end
  in
  let rec simulate node =
    let r =
      if node.untried_n > 0 then begin
        (* expansion: O(1) swap-remove of a uniformly chosen untried action *)
        let i = Rng.int rng node.untried_n in
        let spec = node.untried.(i) in
        node.untried.(i) <- node.untried.(node.untried_n - 1);
        node.untried_n <- node.untried_n - 1;
        match apply node.kernel spec with
        | Error _ ->
          (* inapplicable action: learn its 0 reward *)
          0.0
        | Ok k' ->
          let child = mk_node k' (spec :: node.rspecs) (node.depth + 1) in
          node.children <- child :: node.children;
          let r0 = reward k' child.rspecs in
          let r = rollout k' child.rspecs child.depth r0 in
          child.visits <- child.visits + 1;
          child.total <- child.total +. r;
          r
      end
      else begin
        match node.children with
        | [] -> rollout node.kernel node.rspecs node.depth (reward node.kernel node.rspecs)
        | children ->
          let chosen =
            List.fold_left
              (fun acc c -> if uct node.visits c > uct node.visits acc then c else acc)
              (List.hd children) (List.tl children)
          in
          simulate chosen
      end
    in
    (* backpropagation *)
    node.visits <- node.visits + 1;
    node.total <- node.total +. r;
    r
  in
  for _ = 1 to sims do
    Trace.count "mcts.simulations";
    ignore (simulate root)
  done;
  let bk, bs, br = !best in
  { best_kernel = bk;
    best_specs = List.rev bs;
    best_reward = br;
    root_reward;
    nodes_expanded = !nodes;
    simulations_run = sims
  }

(* [jobs] is ignored: the search runs on one domain. *)
let search ?(config = default_config) ?clock ?(buffer_sizes = []) ?jobs:_ ?(share = true) ?db
    ~platform kernel =
  Trace.span ~cat:"phase"
    ~attrs:
      [ ("simulations", string_of_int config.simulations);
        ("max_depth", string_of_int config.max_depth) ]
    "mcts"
  @@ fun () ->
  let platform_id = platform.Xpiler_machine.Platform.id in
  (* warm start: one database lookup before any batch runs — the prefix is
     replayed by a dedicated extra batch *)
  let prefix =
    match db with
    | None -> []
    | Some db -> (
      match Schedule_db.lookup db platform_id kernel with
      | Some specs -> specs
      | None -> [])
  in
  let charge_clock s =
    match clock with Some c -> Vclock.charge c Vclock.Auto_tuning s | None -> ()
  in
  (* Root parallelism: independent searches over distinct seeds, each with
     a private first-touch table over the shared transposition table, run
     one after another and merged. Simulations split evenly over the [b]
     base batches (remainder to the early ones). The warm-start trajectory
     runs as one *extra* batch — the base batches never see the prefix, so
     a schedule-database hit can only improve the merged result relative to
     the cold search, never redirect it. One batch with no prefix is the
     classic single tree. *)
  let b = max config.root_parallel 1 in
  let sims_of i =
    if i >= b then max 1 (config.simulations / b)
    else (config.simulations / b) + if i < config.simulations mod b then 1 else 0
  in
  let batch i =
    search_one ~config ~sims:(sims_of i) ~seed:(config.seed + (7919 * i)) ~charge:charge_clock
      ~share ~prefix:(if i >= b then prefix else []) ~buffer_sizes ~platform kernel
  in
  let result =
    match List.init (b + if prefix = [] then 0 else 1) batch with
    | [] -> assert false
    | r0 :: rest ->
      List.fold_left
        (fun acc r ->
          let acc =
            { acc with
              nodes_expanded = acc.nodes_expanded + r.nodes_expanded;
              simulations_run = acc.simulations_run + r.simulations_run
            }
          in
          (* strict > keeps the earliest batch on ties *)
          if r.best_reward > acc.best_reward then
            { acc with
              best_kernel = r.best_kernel;
              best_specs = r.best_specs;
              best_reward = r.best_reward
            }
          else acc)
        r0 rest
  in
  (* record the winner for the next similar translation *)
  (match db with
  | Some db ->
    Schedule_db.record db platform_id kernel ~specs:result.best_specs
      ~reward:result.best_reward
  | None -> ());
  result
