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

(* A slot of a search's reward table: the entry, and the last batch that
   replayed its receipt. *)
type slot = { entry : Transposition.entry; mutable replayed_by : int }

(* One independent search: own rng, modelled device time charged through
   [charge], events emitted as they happen.

   Rewards come from [table], which the search's batches share (with
   [share] off, each batch has its own). On a miss, the {!Transposition}
   entries the durable store restored may hold the state; otherwise one
   {!Intra.tune} call evaluates it (a state the checker rejects tunes to 0
   with an empty receipt) and the entry goes to the store's observer.
   Values are pure, so where an entry comes from changes wall-clock time
   only. Observable effects stay deterministic because a batch's first
   touch of a state emits the same canonical stream, replayed from the
   entry's receipt, whatever its source: nothing for invalid states, else
   one 5.0 charge, then a count + 10.0 charge per measured intra variant,
   then one aggregated [intra.pruned] count. Later touches emit nothing.
   {!Intra} emits and charges nothing, and runs under [Trace.without] so
   the cost model's own events stay out of that stream. *)
let search_one ~config ~batch ~table ~sims ~seed ~charge ~share ~buffer_sizes ~platform kernel =
  let rng = Rng.create seed in
  let nodes = ref 0 in
  let best = ref (kernel, [], 0.0) in
  let keyed f =
    f ~platform:platform.Xpiler_machine.Platform.id ~budget:config.intra_candidates
      ~prune:config.prune ~compose:config.compose
  in
  let evaluate k =
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
    if share then keyed Transposition.store k e;
    e
  in
  let lookup k =
    match KTbl.find_opt table k with
    | Some s ->
      (* only a shared table holds another batch's states *)
      if s.replayed_by <> batch then Transposition.count_lookup ~hit:true;
      s
    | None ->
      let restored = if share then keyed Transposition.find k else None in
      if share then Transposition.count_lookup ~hit:(restored <> None);
      let entry = match restored with Some e -> e | None -> evaluate k in
      let s = { entry; replayed_by = -1 } in
      KTbl.add table k s;
      s
  in
  (* reward = best intra-tuned throughput of the state; 0 for invalid states *)
  let reward (k : Kernel.t) rspecs =
    let s = lookup k in
    let e = s.entry in
    (* canonical receipt replay, once per batch *)
    if s.replayed_by <> batch then begin
      s.replayed_by <- batch;
      if e.Transposition.reward > 0.0 then begin
        charge 5.0 (* state set-up on the device *);
        for _ = 1 to e.Transposition.evaluated do
          Trace.count "intra.variants";
          charge 10.0 (* one variant measured on the device *)
        done;
        if e.Transposition.pruned > 0 then Trace.count ~n:e.Transposition.pruned "intra.pruned"
      end
    end;
    let r = e.Transposition.reward in
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

(* [jobs] and [db] are ignored: the search runs on one domain and starts
   from its input kernel alone. *)
let search ?(config = default_config) ?clock ?(buffer_sizes = []) ?jobs:_ ?(share = true) ?db:_
    ~platform kernel =
  Trace.span ~cat:"phase"
    ~attrs:
      [ ("simulations", string_of_int config.simulations);
        ("max_depth", string_of_int config.max_depth) ]
    "mcts"
  @@ fun () ->
  let charge_clock s =
    match clock with Some c -> Vclock.charge c Vclock.Auto_tuning s | None -> ()
  in
  (* Root parallelism: independent searches over distinct seeds, sharing
     this search's reward table, run one after another and merged.
     Simulations split evenly over the [b] batches (remainder to the early
     ones). One batch is the classic single tree. *)
  let b = max config.root_parallel 1 in
  let sims_of i = (config.simulations / b) + if i < config.simulations mod b then 1 else 0 in
  let table = KTbl.create 1024 in
  let batch i =
    let table = if share then table else KTbl.create 128 in
    search_one ~config ~batch:i ~table ~sims:(sims_of i) ~seed:(config.seed + (7919 * i))
      ~charge:charge_clock ~share ~buffer_sizes ~platform kernel
  in
  match List.init b batch with
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
