open Xpiler_ir
module Pass = Xpiler_passes.Pass
module Rng = Xpiler_util.Rng
module Vclock = Xpiler_util.Vclock
module Trace = Xpiler_obs.Trace

type config = { max_depth : int; simulations : int; seed : int; prune : bool }

let default_config = { max_depth = 13; simulations = 512; seed = 7; prune = true }

(* the UCT exploration constant *)
let exploration = 1.2

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

(* One search: one tree, one rng, one reward table, modelled device time
   charged through [charge], events emitted as they happen.

   Rewards come from [table], which dies with the search. On a miss, one
   {!Intra.tune} call evaluates the state and the search emits its
   effects: nothing for a state the checker rejects (reward 0), else one
   5.0 charge, then a count + 10.0 charge per measured intra variant. A hit
   emits nothing. Nothing under {!Intra} (the checker, the cost model)
   emits or charges.

   [jobs], [db] and [config.prune] are ignored: the search runs on one
   domain, starts from its input kernel alone, and its intra-pass tuning
   prunes nothing. *)
let search ?(config = default_config) ?clock ?(buffer_sizes = []) ?jobs:_ ?db:_ ~platform kernel =
  Trace.span ~cat:"phase"
    ~attrs:
      [ ("simulations", string_of_int config.simulations);
        ("max_depth", string_of_int config.max_depth) ]
    "mcts"
  @@ fun () ->
  let charge s =
    match clock with Some c -> Vclock.charge c Vclock.Auto_tuning s | None -> ()
  in
  let rng = Rng.create config.seed in
  let table = KTbl.create 1024 in
  let nodes = ref 0 in
  let best = ref (kernel, [], 0.0) in
  let evaluate k =
    Transposition.count_eval ();
    let v, st = Intra.tune ~platform k in
    let r = v.Intra.throughput in
    if r > 0.0 then begin
      charge 5.0 (* state set-up on the device *);
      for _ = 1 to st.Intra.evaluated do
        Trace.count "intra.variants";
        charge 10.0 (* one variant measured on the device *)
      done
    end;
    r
  in
  (* a lookup the table serves is a hit; a miss is one fresh evaluation *)
  let lookup k =
    match KTbl.find_opt table k with
    | Some r ->
      Transposition.count_lookup ~hit:true;
      r
    | None ->
      Transposition.count_lookup ~hit:false;
      let r = evaluate k in
      KTbl.add table k r;
      r
  in
  (* reward = best intra-tuned throughput of the state; 0 for invalid states *)
  let reward (k : Kernel.t) rspecs =
    let r = lookup k in
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
  (* a node and its action list, which the node's untried array copies *)
  let mk_node kernel rspecs depth =
    incr nodes;
    Trace.count "mcts.expansions";
    let acts = if depth >= config.max_depth then [] else actions kernel in
    let untried = Array.of_list acts in
    ( { kernel; rspecs; depth; untried; untried_n = Array.length untried;
        children = []; visits = 0; total = 0.0
      },
      acts )
  in
  let root, _ = mk_node kernel [] 0 in
  let root_reward = reward kernel [] in
  let uct parent_visits n =
    let mean = if n.visits = 0 then 0.0 else n.total /. float_of_int n.visits in
    mean
    +. exploration
       *. sqrt (log (float_of_int (max parent_visits 1)) /. float_of_int (max n.visits 1))
  in
  let apply k spec = Pass.apply ~platform spec k in
  (* random rollout from a state, returning the best reward encountered;
     [acts] is the state's action list when the caller already has it *)
  let rec rollout ?acts k rspecs depth best_r =
    if depth >= config.max_depth then best_r
    else begin
      Trace.count "mcts.rollout_steps";
      match match acts with Some acts -> acts | None -> actions k with
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
          let child, acts = mk_node k' (spec :: node.rspecs) (node.depth + 1) in
          node.children <- child :: node.children;
          let r0 = reward k' child.rspecs in
          (* the rollout's first step draws from the list the child was
             built from, before any expansion permutes its untried array *)
          let r = rollout ~acts k' child.rspecs child.depth r0 in
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
  for _ = 1 to config.simulations do
    Trace.count "mcts.simulations";
    ignore (simulate root)
  done;
  let bk, bs, br = !best in
  { best_kernel = bk;
    best_specs = List.rev bs;
    best_reward = br;
    root_reward;
    nodes_expanded = !nodes;
    simulations_run = config.simulations
  }
