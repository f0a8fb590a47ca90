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

    - {b Transposition sharing} ([share], default on): rewards are served
      from the session's {!Transposition} table, shared across
      root-parallel batches and successive searches, on top of a per-search
      first-touch table. A miss in both runs {!Intra.tune} directly, with
      no checker or cost-model memo under it. Rewards are pure, so sharing
      changes wall-clock only; observable charges/trace counts replay from
      per-entry receipts, so they depend on the search trajectory alone — a
      cold and a pre-populated table give byte-identical journals.
    - {b Bound-based pruning and composed candidates}
      ([config.prune]/[config.compose], default on): forwarded to
      {!Intra.tune} for every reward evaluation.
    - {b Warm start} ([db]): when a {!Schedule_db} holds a best-spec
      sequence for the kernel's signature (same operator structure and
      platform, any shape), a dedicated extra search batch replays the
      prefix as a guaranteed-expanded first trajectory and then refines
      around it. The base batches never see the prefix, so a database hit
      can only improve the merged result over the cold search — it never
      redirects it (warm-start is monotone by construction). The search
      result is recorded back for the next similar translation; replayed
      steps are traced as [mcts.warm_steps].

    With [root_parallel > 1] the simulation budget is split over that many
    independent searches (distinct seeds, private first-touch tables), run
    one after another on the calling domain, whose best result is kept.
    [root_parallel] shapes the search; it does not parallelize it.

    Every batch, the warm-start one included, emits its events as it runs:
    one [mcts.expansions] count per node, one [mcts.simulations] count per
    simulation, [mcts.rollout_steps]/[mcts.warm_steps] per step, and per
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

    [jobs] is inert: a search runs on one domain, and only whole
    translations run in parallel (the bench harness's {!Xpiler_util.Pool}).
    The argument is kept because the end-to-end benchmark worker passes it. *)
