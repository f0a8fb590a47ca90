open Xpiler_ir
open Xpiler_machine
module Pass = Xpiler_passes.Pass

(** Inter-pass auto-tuning with Monte-Carlo tree search (paper §5.2).

    The transcompilation is a Markov decision process: states are tensor
    programs, actions are pass applications, and the reward is the best
    modelled throughput of the state's intra-pass tuning space (Equations
    3-4). UCT selection, random expansion, random rollout to the depth
    limit, reward backpropagation along the path. The paper's defaults are
    depth N = 13 and 512 simulations.

    One search is one tree with one reward table keyed by kernel, dropped
    when it returns; a repeat search re-evaluates. A miss in the table runs
    {!Intra.tune} (bound-based pruning per [config.prune], composed
    candidates always, 12 candidates per phase); a hit emits nothing. Each
    reward lookup counts once in [xpiler_transposition_lookups_total]
    ({!Transposition}): a hit when the table serves it, a miss when it is
    evaluated fresh. UCT's exploration constant is 1.2.

    The search emits its events as it runs: one [mcts.expansions] count
    per node, one [mcts.simulations] count per simulation, one
    [mcts.rollout_steps] count per rollout step, and per fresh positive
    reward a 5 s [Auto_tuning] charge, then one [intra.variants] count and
    one 10 s charge per measured variant, then [intra.pruned]. So the journal's totals equal the
    result's [nodes_expanded]/[simulations_run] and its [intra.variants]
    total equals its 10 s charges. *)

type config = {
  max_depth : int;
  simulations : int;
  seed : int;
  prune : bool;  (** bound-based pruning inside intra-pass tuning *)
}

val default_config : config

type result = {
  best_kernel : Kernel.t;
  best_specs : Pass.spec list;
  best_reward : float;
  root_reward : float;  (** reward of the untransformed program *)
  nodes_expanded : int;
  simulations_run : int;
}

val search :
  ?config:config ->
  ?clock:Xpiler_util.Vclock.t ->
  ?buffer_sizes:(string * int) list ->
  ?jobs:int ->
  ?db:Schedule_db.t ->
  platform:Platform.t ->
  Kernel.t ->
  result
(** Only compilable states receive a positive reward, so the returned best
    kernel always passes the platform checker (it may equal the input when
    nothing better is found).

    A search starts from its input kernel alone, so its result depends
    only on [config], [buffer_sizes], [platform] and the kernel.

    [jobs] and [db] are inert: a search runs on one domain, and only whole
    translations run in parallel (the bench harness's {!Xpiler_util.Pool});
    no search reads or records a schedule database. Both arguments are kept
    only because [e2ebench/layers.ml] passes them. *)
