(** Meters of the tuner's reward lookups.

    Each {!Mcts.search} keeps the rewards it evaluates in its own table,
    keyed by kernel, and drops them on return: another search almost never
    reaches the same states, and a tuned translation depends only on its
    inputs. No reward table outlives its search, so this module keeps no
    entries; it counts the lookups of the search's table in the registry. *)

val count_lookup : hit:bool -> unit
(** Record one reward lookup in [xpiler_transposition_lookups_total] by
    result: {!Mcts} counts a hit for every lookup its own table serves,
    and a miss for every fresh evaluation. {!hits} reads the hits. *)

val count_eval : unit -> unit
(** Record one fresh reward evaluation (an actual {!Intra.tune} run);
    {!Mcts} calls this with every miss, so the misses equal {!evals}. *)

val hits : unit -> int
val evals : unit -> int
(** Totals since the last [Metrics.reset], read from the registry counters
    [xpiler_transposition_lookups_total] and
    [xpiler_transposition_evals_total]; measure a window with deltas. *)

val clear : unit -> unit
(** A no-op: there is no table to clear. It is kept only because
    [e2ebench/layers.ml] calls it; drop the two together. *)
