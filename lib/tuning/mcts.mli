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

    Search-efficiency mechanisms (each independently switchable):

    - {b Transposition sharing} ([share], default on): a search's batches
      share one reward table keyed by kernel, dropped when it returns. A
      miss there reads the {!Transposition} entries the store restored; a
      miss in both runs {!Intra.tune} and persists the entry. With [share]
      off each batch has a private table and the store is not touched.
      Rewards are pure, so sharing changes wall-clock only; charges and
      trace counts replay from per-entry receipts on each batch's first
      touch of a state, so a cold search and one that reads restored
      entries give byte-identical journals. A repeat search in one process
      re-evaluates.
    - {b Bound-based pruning and composed candidates}
      ([config.prune]/[config.compose], default on): forwarded to
      {!Intra.tune} for every reward evaluation.

    With [root_parallel > 1] the simulation budget is split over that many
    independent searches (distinct seeds, one shared reward table), run
    one after another on the calling domain, whose best result is kept.
    [root_parallel] shapes the search; it does not parallelize it.

    Every batch emits its events as it runs: one [mcts.expansions] count
    per node, one [mcts.simulations] count per simulation, one
    [mcts.rollout_steps] count per rollout step, and per
    positive reward the transposition receipt's stream (a 5 s
    [Auto_tuning] charge, then one [intra.variants] count and one 10 s
    charge per measured variant, then [intra.pruned]). So the journal's
    totals equal the result's [nodes_expanded]/[simulations_run] and its
    [intra.variants] total equals its 10 s charges, however many batches
    ran. *)

type config = {
  max_depth : int;
  simulations : int;
  exploration : float;
  seed : int;
  intra_candidates : int;  (** intra-pass variants measured per new state *)
  root_parallel : int;
      (** independent root-parallel search batches; 1 = classic single tree *)
  prune : bool;  (** bound-based pruning inside intra-pass tuning *)
  compose : bool;  (** depth-2 composed intra candidates *)
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
  ?share:bool ->
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
